import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from krflow import autodiff as ad
from krflow.config import InferenceSection
from krflow.darcy import (
    ObservationOperator,
    ObservationSet,
    lattice_operator,
    log_likelihood,
    observation_matrix,
)
from krflow.flow import FlowConfig, init_flow, krnet_inverse
from krflow.grf import Grid
from krflow.inference import (
    PREFETCH_WIDTH,
    _folded_likelihood,
    make_surrogate_loglike,
    pcn_mcmc,
    posterior_flow_terms,
    posterior_moments,
    posterior_moments_from_states,
    relative_error,
    train_posterior_flow,
)
from krflow.nets import std_normal_logpdf
from krflow.surrogate import init_surrogate, surrogate_forward_batch
from krflow.vae import VaeParams, decode_batch, init_vae

H = W = 5
D = 4


@pytest.fixture
def vae():
    return init_vae(H, W, D, seed=0, encoder_hidden=(12,), decoder_hidden=(12,))


@pytest.fixture
def surrogate():
    return init_surrogate(H, W, seed=1, hidden=(16,))


@pytest.fixture
def obs():
    op = lattice_operator(2, 2, 0.25, 0.5)
    values = np.array([0.2, 0.15, 0.22, 0.18])
    return ObservationSet(operator=op, values=values, sigma=np.full(4, 0.01))


@pytest.fixture
def flow_config():
    return FlowConfig(dim=D, n_groups=2, layers_per_stage=2, hidden_width=8,
                      hidden_depth=2, scale_bound=2.0)


def _tape_terms(z, flow_params, flow_config, log_like):
    """posterior_flow_terms on tape leaves, so the likelihood gets a Tensor."""
    leaves = {name: ad.Tensor.leaf(arr, name=name) for name, arr in flow_params.items()}
    terms = posterior_flow_terms(z, leaves, flow_config, log_like)
    return [float(t.data) if isinstance(t, ad.Tensor) else t for t in terms]


class TestFlowLoss:
    def test_identity_flow_flat_likelihood_cancels(self, flow_config):
        # entropy and prior terms cancel exactly for the identity flow
        flow = init_flow(flow_config, 0)
        z = np.random.default_rng(2).standard_normal((50, D))
        entropy, log_lik, log_prior = _tape_terms(z, flow.store, flow_config, None)
        assert log_lik == 0.0
        assert entropy - log_prior == pytest.approx(0.0, abs=1e-12)

    def test_hand_planted_single_draw(self, flow_config):
        # identity flow, decoder planted to constant outputs, constant sensors:
        # the three diagonal-Gaussian terms are hand-computable
        vae = init_vae(H, W, D, seed=0, encoder_hidden=(6,), decoder_hidden=(6,))
        for name in vae.store:
            if name.startswith("dec."):
                vae.store[name] = np.zeros_like(vae.store[name])
        const_mu, const_logvar = 0.7, -0.4
        b_last = np.zeros(2 * H * W)
        b_last[:H * W] = const_mu
        b_last[H * W:] = const_logvar
        vae.store["dec.b1"] = b_last

        surrogate = init_surrogate(H, W, seed=1, hidden=(6,))
        for name in list(surrogate.store.keys()):
            surrogate.store[name] = np.zeros_like(surrogate.store[name])
        # every unknown at u_const; the sensor sits on an interior node
        u_const = 0.3
        surrogate.store["b1"] = np.full(H * (W - 2), u_const)

        op = ObservationOperator([[0.5, 0.5]])
        sigma = np.array([0.2])
        d_obs = np.array([0.45])
        obs = ObservationSet(op, d_obs, sigma)

        flow = init_flow(flow_config, 0)
        z = np.random.default_rng(4).standard_normal((1, D))
        entropy, log_lik, log_prior = _tape_terms(
            z, flow.store, flow_config, make_surrogate_loglike(vae, surrogate, obs))

        x = z[0]  # identity flow
        expected_prior = -0.5 * (x @ x) - (D / 2) * np.log(2 * np.pi)
        expected_entropy = expected_prior  # logdet = 0
        resid = (d_obs[0] - u_const) / sigma[0]
        expected_loglik = -0.5 * resid ** 2 - np.log(sigma[0]) - 0.5 * np.log(2 * np.pi)
        assert entropy == pytest.approx(expected_entropy, rel=1e-12)
        assert log_prior == pytest.approx(expected_prior, rel=1e-12)
        assert log_lik == pytest.approx(expected_loglik, rel=1e-12)

    def test_gradient_matches_finite_differences(self, vae, surrogate, obs, flow_config):
        # full chain: flow inverse -> folded decoder and surrogate -> likelihood
        flow = init_flow(flow_config, 5)
        rng = np.random.default_rng(6)
        for name in flow.store:
            flow.store[name] = flow.store[name] + 0.02 * rng.standard_normal(
                flow.store[name].shape)
        z = rng.standard_normal((3, D))
        log_like = make_surrogate_loglike(vae, surrogate, obs)

        def program(leaves):
            entropy, log_lik, log_prior = posterior_flow_terms(z, leaves, flow_config,
                                                               log_like)
            return ad.sub(ad.sub(entropy, log_lik), log_prior)

        _, grads = ad.evaluate_with_gradients(program, flow.store)
        h = 1e-5
        worst = 0.0
        checked = 0
        for name in flow.store:
            flat = flow.store[name].ravel()
            for k in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[k]
                flat[k] = orig + h
                up, _ = ad.evaluate_with_gradients(program, flow.store)
                flat[k] = orig - h
                down, _ = ad.evaluate_with_gradients(program, flow.store)
                flat[k] = orig
                fd = (up - down) / (2 * h)
                scale = max(abs(fd), abs(grads[name].ravel()[k]), 1e-6)
                worst = max(worst, abs(grads[name].ravel()[k] - fd) / scale)
                checked += 1
        assert checked > 0
        assert worst < 1e-4


class TestTrainPosteriorFlow:
    def test_zero_epochs_identity(self, vae, surrogate, obs, flow_config):
        config = InferenceSection(sample_size=40, epochs=0, batch_size=20, learning_rate=0.01,
                                  posterior_samples=0)
        flow = train_posterior_flow(flow_config, vae, surrogate, obs, config, seed=3)
        fresh = init_flow(flow_config, 3)
        assert flow.store == fresh.store

    def test_loss_decreases(self, vae, surrogate, obs, flow_config, tmp_path):
        curve_path = tmp_path / "curve.csv"
        config = InferenceSection(sample_size=200, epochs=8, batch_size=50, learning_rate=0.01,
                                  posterior_samples=0)
        train_posterior_flow(flow_config, vae, surrogate, obs, config, seed=3,
                             curve_path=curve_path)
        rows = curve_path.read_text().strip().splitlines()[1:]
        losses = [float(r.split(",")[1]) for r in rows]
        assert losses[-1] < losses[0]

    def test_determinism(self, vae, surrogate, obs, flow_config):
        config = InferenceSection(sample_size=60, epochs=2, batch_size=30, learning_rate=0.01,
                                  posterior_samples=0)
        a = train_posterior_flow(flow_config, vae, surrogate, obs, config, seed=9)
        b = train_posterior_flow(flow_config, vae, surrogate, obs, config, seed=9)
        for k in a.store:
            assert a.store[k].tobytes() == b.store[k].tobytes()


class TestPosteriorMoments:
    def test_single_sample(self, vae, flow_config):
        flow = init_flow(flow_config, 0)
        rng = np.random.default_rng(11)
        summary = posterior_moments(flow, vae, 1, rng)
        x = krnet_inverse(np.random.default_rng(11).standard_normal((1, D)), flow)
        mu, logvar = decode_batch(x, vae.store, vae)
        np.testing.assert_allclose(summary.mean_field, mu.reshape(H, W), atol=1e-12)
        np.testing.assert_allclose(summary.variance_field, np.exp(logvar).reshape(H, W),
                                   atol=1e-12)
        assert summary.n_samples == 1

    def test_constant_decoder_mean(self, flow_config):
        vae = init_vae(H, W, D, seed=0, encoder_hidden=(6,), decoder_hidden=(6,))
        for name in vae.store:
            if name.startswith("dec."):
                vae.store[name] = np.zeros_like(vae.store[name])
        b = np.zeros(2 * H * W)
        b[:H * W] = 2.5
        vae.store["dec.b1"] = b
        flow = init_flow(flow_config, 1)
        summary = posterior_moments(flow, vae, 50, np.random.default_rng(12))
        np.testing.assert_allclose(summary.mean_field, 2.5, atol=1e-12)

    def test_variance_estimator_verbatim_two_samples(self, flow_config):
        # hand computation on N_s = 2 planted latents: the variance field is
        # exactly the average of the two decoder variance images
        vae = init_vae(H, W, D, seed=3, encoder_hidden=(8,), decoder_hidden=(8,))
        flow = init_flow(flow_config, 2)  # identity: x = z
        rng = np.random.default_rng(13)
        summary = posterior_moments(flow, vae, 2, rng)
        z = np.random.default_rng(13).standard_normal((2, D))
        mu0, lv0 = (a.reshape(H, W) for a in decode_batch(z[:1], vae.store, vae))
        mu1, lv1 = (a.reshape(H, W) for a in decode_batch(z[1:], vae.store, vae))
        expected_mean = 0.5 * (mu0 + mu1)
        expected_var = 0.5 * (np.exp(lv0) + np.exp(lv1))
        np.testing.assert_allclose(summary.mean_field, expected_mean, rtol=1e-13)
        np.testing.assert_allclose(summary.variance_field, expected_var, rtol=1e-13)

    @staticmethod
    def _pixel_sd(flow, vae, n, seed):
        """RMS over pixels of the across-sample sd of the decoder means of the
        n flow draws ``posterior_moments`` makes from ``seed``."""
        z = np.random.default_rng(seed).standard_normal((n, flow.config.dim))
        mu, _ = decode_batch(krnet_inverse(z, flow), vae.store, vae)
        return np.sqrt(mu.var(axis=0).mean())

    def test_mc_convergence_between_sample_sizes(self, vae, flow_config):
        flow = init_flow(flow_config, 0)
        a = posterior_moments(flow, vae, 2000, np.random.default_rng(14))
        b = posterior_moments(flow, vae, 4000, np.random.default_rng(15))
        rms = np.sqrt(np.mean((a.mean_field - b.mean_field) ** 2))
        pixel_sd = self._pixel_sd(flow, vae, 2000, 14)
        mc_se = pixel_sd * np.sqrt(1 / 2000 + 1 / 4000)
        assert rms < 3 * mc_se

    def test_seed_invariance_in_expectation(self, vae, flow_config):
        flow = init_flow(flow_config, 0)
        a = posterior_moments(flow, vae, 3000, np.random.default_rng(16))
        b = posterior_moments(flow, vae, 3000, np.random.default_rng(17))
        rms = np.sqrt(np.mean((a.mean_field - b.mean_field) ** 2))
        pixel_sd = self._pixel_sd(flow, vae, 3000, 16)
        assert rms < 3 * pixel_sd * np.sqrt(2 / 3000)

    def test_moments_from_states_matches_direct(self, vae, flow_config):
        states = np.random.default_rng(18).standard_normal((30, D))
        summary = posterior_moments_from_states(states, vae)
        from krflow.vae import decode_batch
        mu, logvar = decode_batch(states, vae.store, vae)
        np.testing.assert_allclose(summary.mean_field.ravel(), mu.mean(axis=0))
        np.testing.assert_allclose(summary.variance_field.ravel(),
                                   np.exp(logvar).mean(axis=0))


class TestPcnMcmc:
    def test_flat_likelihood_preserves_standard_normal(self):
        chain = pcn_mcmc(lambda x: 0.0, dim=4, steps=10_000, step_size=0.8,
                         seed=5, burn_keep=2000)
        assert chain.acceptance_rate == 1.0
        states = chain.states
        # lag-1 autocorrelation of the flat-likelihood chain is known exactly
        rho = np.sqrt(1.0 - 0.8 ** 2)
        n_eff = len(states) * (1 - rho) / (1 + rho)
        for k in range(4):
            coord = states[:, k]
            assert abs(coord.mean()) < 3.0 / np.sqrt(n_eff)
            assert abs(coord.var() - 1.0) < 0.05 + 3.0 * np.sqrt(2.0 / n_eff)
            ks = stats.kstest(coord, "norm").statistic
            assert ks < 1.628 / np.sqrt(n_eff)  # 1% critical value

    def test_unit_step_size_gives_independent_draws(self):
        chain = pcn_mcmc(lambda x: 0.0, dim=3, steps=500, step_size=1.0,
                         seed=6, burn_keep=400)
        lag1 = np.corrcoef(chain.states[:-1, 0], chain.states[1:, 0])[0, 1]
        assert abs(lag1) < 0.12

    def test_conjugate_gaussian_posterior_mean(self):
        # prior N(0,1) x likelihood N(x; 2, 1) => posterior N(1, 1/2)
        def log_like(x):
            return float(-0.5 * (x[0] - 2.0) ** 2)

        chain = pcn_mcmc(log_like, dim=1, steps=20_000, step_size=0.5,
                         seed=7, burn_keep=5000)
        states = chain.states[:, 0]
        # integrated autocorrelation time from the empirical acf
        acf = np.correlate(states - states.mean(), states - states.mean(), "full")
        acf = acf[len(acf) // 2:] / acf[len(acf) // 2]
        tau = 1.0 + 2.0 * np.sum(acf[1:200].clip(min=0))
        se = np.sqrt(0.5 / (len(states) / tau))
        assert abs(states.mean() - 1.0) < 3 * se
        assert abs(states.var() - 0.5) < 0.1

    def test_retained_count_and_bounds(self):
        chain = pcn_mcmc(lambda x: -0.1 * float(x @ x), dim=2, steps=300,
                         step_size=0.3, seed=8, burn_keep=120)
        assert chain.states.shape == (120, 2)
        assert 0 <= chain.accepted_count <= chain.total_steps == 300
        assert len(chain.log_likelihoods) == 120

    def test_deterministic(self):
        a = pcn_mcmc(lambda x: -float(x @ x), dim=2, steps=200, step_size=0.4,
                     seed=9, burn_keep=50)
        b = pcn_mcmc(lambda x: -float(x @ x), dim=2, steps=200, step_size=0.4,
                     seed=9, burn_keep=50)
        np.testing.assert_array_equal(a.states, b.states)

    def test_nonfinite_initial_loglike_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            pcn_mcmc(lambda x: float("nan"), dim=2, steps=10, step_size=0.5,
                     seed=0, burn_keep=5)

    @pytest.mark.parametrize("steps,burn_keep", [(0, 0), (10, 0), (10, 11)])
    def test_retained_count_outside_one_to_steps_rejected(self, steps, burn_keep):
        with pytest.raises(ValueError, match="burn_keep"):
            pcn_mcmc(lambda x: 0.0, dim=2, steps=steps, step_size=0.5, seed=0,
                     burn_keep=burn_keep)

    def test_invalid_step_size_rejected(self):
        with pytest.raises(ValueError, match="step_size"):
            pcn_mcmc(lambda x: 0.0, dim=2, steps=10, step_size=1.5, seed=0,
                     burn_keep=5)

    def test_adapted_step_holds_retained_acceptance_in_band(self):
        # sharply concentrated likelihood forces steps well below the initial 0.2
        def log_like(x):
            return float(-50.0 * (x @ x))

        chain = pcn_mcmc(log_like, dim=6, steps=2000, step_size=0.0, seed=11,
                         burn_keep=500)
        assert chain.step_size < 0.2
        # proposals are continuous, so a kept state differs from the one
        # before it exactly when that step accepted
        moves = np.any(chain.states[1:] != chain.states[:-1], axis=1).sum()
        assert 0.20 <= moves / (len(chain.states) - 1) <= 0.35

    def test_burn_in_shorter_than_a_block_keeps_the_initial_step(self):
        def log_like(x):
            return float(-50.0 * (x @ x))

        adapted = pcn_mcmc(log_like, dim=3, steps=100, step_size=0.0, seed=4, burn_keep=51)
        fixed = pcn_mcmc(log_like, dim=3, steps=100, step_size=0.2, seed=4, burn_keep=51)
        assert adapted.step_size == 0.2
        assert adapted.states.tobytes() == fixed.states.tobytes()
        assert adapted.accepted_count == fixed.accepted_count


class TestRelativeError:
    def test_exact_zero(self):
        f = np.random.default_rng(20).standard_normal((4, 4))
        assert relative_error(f, f) == 0.0

    def test_zero_prediction_unity(self):
        f = np.random.default_rng(21).standard_normal((4, 4))
        assert relative_error(np.zeros_like(f), f) == pytest.approx(1.0)

    def test_doubling_identity(self):
        f = np.random.default_rng(22).standard_normal((4, 4))
        assert relative_error(2.0 * f, f) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            relative_error(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_zero_exact_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            relative_error(np.ones((2, 2)), np.zeros((2, 2)))


def test_surrogate_loglike_matches_manual(vae, surrogate, obs):
    log_like = make_surrogate_loglike(vae, surrogate, obs)
    x = np.random.default_rng(23).standard_normal(D)
    assert log_like(x) == pytest.approx(_reference_loglike(vae, surrogate, obs)(x),
                                        rel=1e-12)


def _reference_loglike(vae, surrogate, obs):
    """decode_batch -> surrogate_forward_batch -> observation_matrix, step by step."""
    obs_matrix = observation_matrix(obs.operator, Grid(surrogate.height, surrogate.width))

    def log_like(x):
        mu, _ = decode_batch(x.reshape(1, -1), vae.store, vae)
        u = surrogate_forward_batch(mu, surrogate.store, surrogate)
        return log_likelihood(obs, obs_matrix @ u.ravel())

    return log_like


def _random_model(decoder_hidden, surrogate_hidden, seed=0):
    """Decoder and surrogate with every weight and bias random and non-zero."""
    rng = np.random.default_rng(seed)
    vae = init_vae(H, W, D, seed, encoder_hidden=(12,), decoder_hidden=decoder_hidden,
                   offset=1.1, scale=0.6)
    sp = init_surrogate(H, W, seed + 1, hidden=surrogate_hidden, offset=0.9, scale=0.7)
    for store, prefix in ((vae.store, "dec."), (sp.store, "")):
        for name, arr in store.items():
            if name.startswith(prefix):
                store[name] = 0.4 * rng.standard_normal(arr.shape)
    return vae, sp


def _noisy_obs(vae, sp, sigma, seed=0):
    """Observations of the model's own prediction at a random latent."""
    rng = np.random.default_rng(seed)
    op = lattice_operator(3, 3, 0.1, 0.35)
    mu, _ = decode_batch(rng.standard_normal((1, D)), vae.store, vae)
    u = surrogate_forward_batch(mu, sp.store, sp)
    clean = observation_matrix(op, Grid(H, W)) @ u.ravel()
    values = clean + sigma * rng.standard_normal(op.n_sensors)
    return ObservationSet(operator=op, values=values, sigma=np.full(op.n_sensors, sigma))


@pytest.mark.parametrize("decoder_hidden,surrogate_hidden",
                         [((12,), (16,)), ((12, 10), (16, 8)), ((), ()), ((12,), ())])
def test_surrogate_loglike_matches_composition_with_random_weights(
        decoder_hidden, surrogate_hidden):
    vae, sp = _random_model(decoder_hidden, surrogate_hidden)
    obs = _noisy_obs(vae, sp, sigma=0.05)
    log_like = make_surrogate_loglike(vae, sp, obs)
    reference = _reference_loglike(vae, sp, obs)
    for x in np.random.default_rng(7).standard_normal((16, D)):
        expected = reference(x)
        assert log_like(x) == pytest.approx(expected, rel=1e-12)
        assert isinstance(log_like(x), float)


def test_pcn_with_folded_loglike_reproduces_reference_chain():
    vae, sp = _random_model((12,), (16, 8), seed=3)
    obs = _noisy_obs(vae, sp, sigma=0.5, seed=3)
    chains = [pcn_mcmc(f, D, steps=600, step_size=0.3, seed=11, burn_keep=200)
              for f in (make_surrogate_loglike(vae, sp, obs),
                        _reference_loglike(vae, sp, obs))]
    assert 50 < chains[0].accepted_count < 550
    assert chains[0].accepted_count == chains[1].accepted_count
    assert chains[0].states.tobytes() == chains[1].states.tobytes()
    np.testing.assert_allclose(chains[0].log_likelihoods, chains[1].log_likelihoods,
                               rtol=1e-12)


def _sequential_pcn(log_like, dim, steps, step_size, seed, burn_keep):
    """The one-proposal-per-step pCN loop, the reference for paths of any width.

    Step 0 starts at 0.2 and rescales the step by exp((a_n - 0.25) / sqrt(n))
    after each whole 50-step block n of burn-in, a_n being its acceptance.
    """
    adapt = step_size == 0.0
    step_size = step_size or 0.2
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim)
    current_ll = float(log_like(x))
    contraction = np.sqrt(1.0 - step_size ** 2)
    kept_states = np.empty((burn_keep, dim))
    kept_ll = np.empty(burn_keep)
    accepted = block_accepted = 0
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
        if adapt and (step + 1) % 50 == 0 and step + 1 <= steps - burn_keep:
            rate = (accepted - block_accepted) / 50
            step_size *= math.exp((rate - 0.25) / math.sqrt((step + 1) // 50))
            step_size = min(max(step_size, 1e-4), 1.0)
            contraction = np.sqrt(1.0 - step_size ** 2)
            block_accepted = accepted
    return kept_states, kept_ll, accepted, step_size


def _gaussian(center, precision, shapes, vectorized=True):
    """-precision/2 |x - center|^2 on (d,) or (n, d); records each call's shape."""
    def log_like(x):
        shapes.append(x.shape)
        r = x - center
        value = -0.5 * precision * np.sum(r * r, axis=-1)
        return float(value) if x.ndim == 1 else value

    if vectorized:
        log_like.vectorized = True
    return log_like


@st.composite
def _pcn_cases(draw):
    # chains no longer than two prefetch paths are as likely as longer ones
    steps = draw(st.one_of(st.integers(1, 2 * PREFETCH_WIDTH), st.integers(1, 300)))
    # 0 adapts the step from 0.2 during burn-in
    step_size = draw(st.sampled_from([0.6, 0.3, 0.05, 0.0]))
    # acceptance falls with precision * step_size^2: at step 0.6, 10^-2.5 gives
    # about 0.95 and 10^3 about 0.02 (test_prefetch_cases_span_acceptance)
    log_scale = draw(st.sampled_from([3.0, -2.5, 2.0, -1.5, 1.0, -0.5, 0.5, 0.0]))
    return dict(dim=draw(st.integers(1, 6)), steps=steps,
                burn_keep=draw(st.integers(1, steps)), step_size=step_size,
                precision=10.0 ** log_scale / (step_size or 0.2) ** 2,
                seed=draw(st.integers(0, 10_000)))


# adapting chains with 3 and 7 whole burn-in blocks and then a cut-short one;
# the first lowers the step and the second raises it
_ADAPTING = [dict(dim=3, steps=260, burn_keep=100, step_size=0.0, precision=2500.0,
                  seed=17),
             dict(dim=5, steps=420, burn_keep=40, step_size=0.0, precision=10.0, seed=5)]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(_pcn_cases(), st.booleans())
@example(_ADAPTING[0], True)
@example(_ADAPTING[0], False)
@example(_ADAPTING[1], True)
@example(_ADAPTING[1], False)
def test_prefetching_pcn_reproduces_sequential_chain(case, vectorized):
    dim, steps, burn_keep = case["dim"], case["steps"], case["burn_keep"]
    step_size, seed = case["step_size"], case["seed"]
    center = np.linspace(-1.0, 1.5, dim)
    shapes = []
    log_like = _gaussian(center, case["precision"], shapes, vectorized)
    chain = pcn_mcmc(log_like, dim, steps, step_size, seed, burn_keep)
    rows = [shape[0] if len(shape) == 2 else 1 for shape in shapes]
    states, log_likelihoods, accepted, final_step = _sequential_pcn(
        log_like, dim, steps, step_size, seed, burn_keep)
    assert chain.accepted_count == accepted
    assert chain.step_size == final_step
    assert chain.states.tobytes() == states.tobytes()
    np.testing.assert_allclose(chain.log_likelihoods, log_likelihoods, rtol=1e-12, atol=0)
    # after the initial state, a vectorized likelihood gets only batches and
    # a plain one only (d,) arrays
    assert {len(shape) for shape in shapes[1:len(rows)]} == {2 if vectorized else 1}
    assert max(rows) <= PREFETCH_WIDTH
    assert chain.likelihood_evaluations == sum(rows) >= 1 + steps


@pytest.mark.parametrize("log_scale,low,high", [(3.0, 0.0, 0.03), (-2.5, 0.94, 1.0)])
def test_prefetch_cases_span_acceptance(log_scale, low, high):
    log_like = _gaussian(np.linspace(-1.0, 1.5, 6), 10.0 ** log_scale / 0.36, [])
    chain = pcn_mcmc(log_like, 6, 2000, 0.6, 3, 1)
    assert low <= chain.acceptance_rate <= high
    # at either extreme the path follows the chain: few prefetched rows go unused
    assert chain.likelihood_evaluations <= 2 * 2000


def test_plain_loglike_is_called_once_per_step_with_one_state():
    states = []

    def log_like(x):
        states.append(x)
        return -0.5 * float(x @ x)

    chain = pcn_mcmc(log_like, dim=3, steps=250, step_size=0.4, seed=2, burn_keep=10)
    assert [x.shape for x in states] == [(3,)] * 251
    assert chain.likelihood_evaluations == 251
    # each call gets its own array, which the sampler never overwrites
    assert len({id(x) for x in states}) == 251
    seen = {x.tobytes() for x in states}
    assert all(x.tobytes() in seen for x in chain.states)


@pytest.mark.parametrize("decoder_hidden,surrogate_hidden", [((12,), (16, 8)), ((), ())])
def test_surrogate_loglike_batch_rows_match_single_calls(decoder_hidden, surrogate_hidden):
    vae, sp = _random_model(decoder_hidden, surrogate_hidden, seed=5)
    obs = _noisy_obs(vae, sp, sigma=0.05, seed=5)
    log_like = make_surrogate_loglike(vae, sp, obs)
    assert log_like.vectorized is True
    xs = np.random.default_rng(9).standard_normal((PREFETCH_WIDTH, D))
    batch = log_like(xs)
    assert batch.shape == (PREFETCH_WIDTH,)
    single = np.array([log_like(x) for x in xs])
    # matrix-matrix against vector-matrix products differ in the last bits of
    # z = target - h @ w_out, so the bound scales with the terms of z's sums
    term_size = _term_size(*_folded_likelihood(vae, sp, obs)[:3], xs)
    np.testing.assert_array_less(np.abs(batch - single), 1e-15 * (np.abs(single) + term_size))


def _term_size(hidden, w_out, target, xs):
    """sum |z| (|target| + |h| @ |w_out|) per row: the size of the terms of z's sums."""
    h = xs
    for w, b in hidden:
        h = np.maximum(h @ w + b, 0.0)
    z = target - h @ w_out
    return np.einsum("ij,ij->i", np.abs(z), np.abs(target) + np.abs(h) @ np.abs(w_out))


def _relu_pattern(hidden, x):
    h, pattern = x, [np.zeros((len(x), 0), dtype=bool)]
    for w, b in hidden:
        pre = h @ w + b
        pattern.append(pre > 0.0)
        h = np.maximum(pre, 0.0)
    return np.concatenate(pattern, axis=-1)


HIDDEN_SHAPES = st.one_of(st.just(()), st.tuples(st.integers(1, 12)),
                          st.tuples(st.integers(1, 12), st.integers(1, 12)))


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(HIDDEN_SHAPES, HIDDEN_SHAPES, st.integers(0, 1000))
def test_tape_likelihood_matches_numpy_value_and_central_differences(
        decoder_hidden, surrogate_hidden, seed):
    vae, sp = _random_model(decoder_hidden, surrogate_hidden, seed=seed)
    obs = _noisy_obs(vae, sp, sigma=0.05, seed=seed)
    log_like = make_surrogate_loglike(vae, sp, obs)
    hidden = _folded_likelihood(vae, sp, obs)[0]
    xs = np.random.default_rng(seed + 1).standard_normal((6, D))

    batch = log_like(xs)
    tape = log_like(ad.Tensor.constant(xs))
    assert isinstance(tape, ad.Tensor) and tape.shape == (6,)
    np.testing.assert_array_equal(tape.data, batch)

    _, grads = ad.evaluate_with_gradients(lambda leaves: ad.sum_(log_like(leaves["x"])),
                                          {"x": xs})
    h = 1e-3
    pattern = _relu_pattern(hidden, xs)
    checked = 0
    for j in range(D):
        step = np.zeros(D)
        step[j] = h
        up, down = xs + step, xs - step
        # within one ReLU pattern the likelihood is quadratic in x, so the
        # central difference is exact up to rounding, which a wide step keeps
        # small (over 200 random models: 9e-8 relative at h = 1e-3, 2e-6 at 1e-5)
        same = ((_relu_pattern(hidden, up) == pattern).all(axis=1)
                & (_relu_pattern(hidden, down) == pattern).all(axis=1))
        fd = (log_like(up) - log_like(down)) / (2 * h)
        g = grads["x"][:, j]
        np.testing.assert_allclose(g[same], fd[same], rtol=1e-6)
        checked += same.sum()
    assert checked > 0
