import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from krflow import autodiff as ad
from krflow.config import InferenceSection
from krflow.darcy import (
    NoiseModel,
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
    KrnetLossBreakdown,
    McmcChain,
    _folded_likelihood,
    make_surrogate_loglike,
    pcn_mcmc,
    posterior_flow_loss,
    posterior_flow_terms,
    posterior_moments,
    posterior_moments_from_states,
    relative_error,
    train_posterior_flow,
    tune_pcn_step,
)
from krflow.nets import std_normal_logpdf
from krflow.surrogate import init_surrogate, surrogate_forward
from krflow.vae import VaeParams, decode, init_vae

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
    noise = NoiseModel(level=0.05, per_sensor_std=np.full(4, 0.01), floor=0.01)
    return ObservationSet(operator=op, values=values, noise=noise)


@pytest.fixture
def flow_config():
    return FlowConfig(dim=D, n_groups=2, layers_per_stage=2, hidden_width=8,
                      hidden_depth=2, scale_bound=2.0)


class TestFlowLoss:
    def test_identity_flow_flat_likelihood_cancels(self, vae, surrogate, flow_config):
        # entropy and prior terms cancel exactly for the identity flow
        flow = init_flow(flow_config, 0)
        z = np.random.default_rng(2).standard_normal((50, D))
        total, bd = posterior_flow_loss(z, flow, vae, surrogate, obs=None)
        assert bd.neg_log_likelihood_term == 0.0
        assert total == pytest.approx(0.0, abs=1e-12)
        assert bd.flow_entropy_term == pytest.approx(-bd.neg_log_prior_term, abs=1e-12)

    def test_breakdown_additive(self, vae, surrogate, obs, flow_config):
        flow = init_flow(flow_config, 0)
        z = np.random.default_rng(3).standard_normal((20, D))
        total, bd = posterior_flow_loss(z, flow, vae, surrogate, obs)
        assert total == pytest.approx(
            bd.flow_entropy_term + bd.neg_log_likelihood_term + bd.neg_log_prior_term,
            abs=1e-12)

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
        obs = ObservationSet(op, d_obs, NoiseModel(0.05, sigma, 0.2))

        flow = init_flow(flow_config, 0)
        z = np.random.default_rng(4).standard_normal((1, D))
        total, bd = posterior_flow_loss(z, flow, vae, surrogate, obs)

        x = z[0]  # identity flow
        expected_prior = -0.5 * (x @ x) - (D / 2) * np.log(2 * np.pi)
        expected_entropy = expected_prior  # logdet = 0
        resid = (d_obs[0] - u_const) / sigma[0]
        expected_loglik = -0.5 * resid ** 2 - np.log(sigma[0]) - 0.5 * np.log(2 * np.pi)
        assert bd.flow_entropy_term == pytest.approx(expected_entropy, rel=1e-12)
        assert bd.neg_log_prior_term == pytest.approx(-expected_prior, rel=1e-12)
        assert bd.neg_log_likelihood_term == pytest.approx(-expected_loglik, rel=1e-12)
        assert total == pytest.approx(
            expected_entropy - expected_loglik - expected_prior, rel=1e-10)

    def test_gradient_matches_finite_differences(self, vae, surrogate, obs, flow_config):
        # full chain: flow inverse -> decoder -> surrogate -> likelihood
        flow = init_flow(flow_config, 5)
        rng = np.random.default_rng(6)
        for name in flow.store:
            flow.store[name] = flow.store[name] + 0.02 * rng.standard_normal(
                flow.store[name].shape)
        z = rng.standard_normal((3, D))

        def program(leaves):
            entropy, log_lik, log_prior = posterior_flow_terms(
                z, leaves, flow_config, vae, surrogate, obs)
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

    def test_sampled_decoding_consistent_with_mean_mode(self, vae, surrogate, obs,
                                                        flow_config):
        # zeta = 0 reduces the sampled mode to the mean mode exactly
        flow = init_flow(flow_config, 0)
        z = np.random.default_rng(7).standard_normal((10, D))
        t_mean, _ = posterior_flow_loss(z, flow, vae, surrogate, obs)
        t_zeta0, _ = posterior_flow_loss(z, flow, vae, surrogate, obs,
                                         zeta=np.zeros((10, H * W)))
        assert t_mean == pytest.approx(t_zeta0, rel=1e-12)


class TestTrainPosteriorFlow:
    def test_zero_epochs_identity(self, vae, surrogate, obs, flow_config):
        config = InferenceSection(sample_size=40, epochs=0, batch_size=20, learning_rate=0.01,
                                  posterior_samples=0, decoder_sampling="mean")
        flow = train_posterior_flow(flow_config, vae, surrogate, obs, config, seed=3)
        fresh = init_flow(flow_config, 3)
        assert flow.store == fresh.store

    def test_loss_decreases(self, vae, surrogate, obs, flow_config, tmp_path):
        curve_path = tmp_path / "curve.csv"
        config = InferenceSection(sample_size=200, epochs=8, batch_size=50, learning_rate=0.01,
                                  posterior_samples=0, decoder_sampling="mean")
        train_posterior_flow(flow_config, vae, surrogate, obs, config, seed=3,
                             curve_path=curve_path)
        rows = curve_path.read_text().strip().splitlines()[1:]
        losses = [float(r.split(",")[1]) for r in rows]
        assert losses[-1] < losses[0]

    def test_determinism(self, vae, surrogate, obs, flow_config):
        config = InferenceSection(sample_size=60, epochs=2, batch_size=30, learning_rate=0.01,
                                  posterior_samples=0, decoder_sampling="mean")
        a = train_posterior_flow(flow_config, vae, surrogate, obs, config, seed=9)
        b = train_posterior_flow(flow_config, vae, surrogate, obs, config, seed=9)
        for k in a.store:
            assert a.store[k].tobytes() == b.store[k].tobytes()

    def test_sampled_mode_runs(self, vae, surrogate, obs, flow_config):
        config = InferenceSection(sample_size=30, epochs=1, batch_size=30, learning_rate=0.01,
                                  posterior_samples=0, decoder_sampling="sample")
        flow = train_posterior_flow(flow_config, vae, surrogate, obs, config, seed=4)
        assert len(flow.store) > 0

    def test_invalid_mode_rejected(self, vae, surrogate, obs, flow_config):
        config = InferenceSection(sample_size=10, epochs=1, batch_size=10, learning_rate=0.01,
                                  posterior_samples=0, decoder_sampling="bogus")
        with pytest.raises(ValueError, match="decoder_sampling"):
            train_posterior_flow(flow_config, vae, surrogate, obs, config, seed=4)


class TestPosteriorMoments:
    def test_single_sample(self, vae, flow_config):
        flow = init_flow(flow_config, 0)
        rng = np.random.default_rng(11)
        summary = posterior_moments(flow, vae, 1, rng)
        x = krnet_inverse(np.random.default_rng(11).standard_normal((1, D)), flow)
        from krflow.vae import decode
        mu, logvar = decode(x[0], vae)
        np.testing.assert_allclose(summary.mean_field, mu, atol=1e-12)
        np.testing.assert_allclose(summary.variance_field, np.exp(logvar), atol=1e-12)
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
        from krflow.vae import decode
        mu0, lv0 = decode(z[0], vae)
        mu1, lv1 = decode(z[1], vae)
        expected_mean = 0.5 * (mu0 + mu1)
        expected_var = 0.5 * (np.exp(lv0) + np.exp(lv1))
        np.testing.assert_allclose(summary.mean_field, expected_mean, rtol=1e-13)
        np.testing.assert_allclose(summary.variance_field, expected_var, rtol=1e-13)
        # the diagnostic spread is the across-sample variance of the means
        np.testing.assert_allclose(summary.mean_spread_field,
                                   0.25 * (mu0 - mu1) ** 2, atol=1e-14)

    def test_mc_convergence_between_sample_sizes(self, vae, flow_config):
        flow = init_flow(flow_config, 0)
        a = posterior_moments(flow, vae, 2000, np.random.default_rng(14))
        b = posterior_moments(flow, vae, 4000, np.random.default_rng(15))
        rms = np.sqrt(np.mean((a.mean_field - b.mean_field) ** 2))
        pixel_sd = np.sqrt(a.mean_spread_field.mean())
        mc_se = pixel_sd * np.sqrt(1 / 2000 + 1 / 4000)
        assert rms < 3 * mc_se

    def test_seed_invariance_in_expectation(self, vae, flow_config):
        flow = init_flow(flow_config, 0)
        a = posterior_moments(flow, vae, 3000, np.random.default_rng(16))
        b = posterior_moments(flow, vae, 3000, np.random.default_rng(17))
        rms = np.sqrt(np.mean((a.mean_field - b.mean_field) ** 2))
        pixel_sd = np.sqrt(a.mean_spread_field.mean())
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

    def test_tuner_reaches_target_band(self):
        # sharply concentrated likelihood forces small steps
        def log_like(x):
            return float(-50.0 * (x @ x))

        step = tune_pcn_step(log_like, dim=6, seed=10, initial=0.8)
        chain = pcn_mcmc(log_like, dim=6, steps=2000, step_size=step, seed=11,
                         burn_keep=500)
        assert 0.12 < chain.acceptance_rate < 0.45


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
    """decode -> surrogate_forward -> observation_matrix, step by step."""
    obs_matrix = observation_matrix(obs.operator, Grid(surrogate.height, surrogate.width))

    def log_like(x):
        mu, _ = decode(x, vae)
        u = surrogate_forward(mu, surrogate)
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
    mu, _ = decode(rng.standard_normal(D), vae)
    u = surrogate_forward(mu, sp)
    clean = observation_matrix(op, Grid(H, W)) @ u.ravel()
    values = clean + sigma * rng.standard_normal(op.n_sensors)
    noise = NoiseModel(level=0.05, per_sensor_std=np.full(op.n_sensors, sigma), floor=sigma)
    return ObservationSet(operator=op, values=values, noise=noise)


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
    """The one-proposal-per-step pCN loop, the reference for prefetching."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim)
    current_ll = float(log_like(x))
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
    return kept_states, kept_ll, accepted


def _vectorized_gaussian(center, precision, batch_rows):
    """-precision/2 |x - center|^2 on (d,) or (n, d); records each batch's rows."""
    def log_like(x):
        r = x - center
        value = -0.5 * precision * np.sum(r * r, axis=-1)
        if x.ndim == 1:
            return float(value)
        batch_rows.append(len(x))
        return value

    log_like.vectorized = True
    return log_like


@st.composite
def _pcn_cases(draw):
    # chains shorter than a prefetch tree are as likely as longer ones
    steps = draw(st.one_of(st.integers(1, 2 * PREFETCH_WIDTH), st.integers(1, 300)))
    step_size = draw(st.sampled_from([0.6, 0.3, 0.05]))
    # acceptance falls with precision * step_size^2: at step 0.6, 10^-2.5 gives
    # about 0.95 and 10^3 about 0.02 (test_prefetch_cases_span_acceptance)
    log_scale = draw(st.sampled_from([3.0, -2.5, 2.0, -1.5, 1.0, -0.5, 0.5, 0.0]))
    return dict(dim=draw(st.integers(1, 6)), steps=steps,
                burn_keep=draw(st.integers(1, steps)), step_size=step_size,
                precision=10.0 ** log_scale / step_size ** 2,
                seed=draw(st.integers(0, 10_000)))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(_pcn_cases())
def test_prefetching_pcn_reproduces_sequential_chain(case):
    dim, steps, burn_keep = case["dim"], case["steps"], case["burn_keep"]
    step_size, seed = case["step_size"], case["seed"]
    center = np.linspace(-1.0, 1.5, dim)
    rows = []
    log_like = _vectorized_gaussian(center, case["precision"], rows)
    chain = pcn_mcmc(log_like, dim, steps, step_size, seed, burn_keep)
    states, log_likelihoods, accepted = _sequential_pcn(log_like, dim, steps, step_size,
                                                        seed, burn_keep)
    assert chain.accepted_count == accepted
    assert chain.states.tobytes() == states.tobytes()
    np.testing.assert_allclose(chain.log_likelihoods, log_likelihoods, rtol=1e-12, atol=0)
    assert rows and max(rows) <= PREFETCH_WIDTH
    assert chain.likelihood_evaluations == 1 + sum(rows)
    assert chain.likelihood_evaluations >= 1 + steps


@pytest.mark.parametrize("log_scale,low,high", [(3.0, 0.0, 0.03), (-2.5, 0.94, 1.0)])
def test_prefetch_cases_span_acceptance(log_scale, low, high):
    log_like = _vectorized_gaussian(np.linspace(-1.0, 1.5, 6), 10.0 ** log_scale / 0.36, [])
    assert low <= pcn_mcmc(log_like, 6, 2000, 0.6, 3, 1).acceptance_rate <= high


def test_plain_loglike_is_called_once_per_step_with_one_state():
    shapes = []

    def log_like(x):
        shapes.append(x.shape)
        return -0.5 * float(x @ x)

    chain = pcn_mcmc(log_like, dim=3, steps=250, step_size=0.4, seed=2, burn_keep=10)
    assert shapes == [(3,)] * 251
    assert chain.likelihood_evaluations == 251


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
    hidden, w_out, target, _ = _folded_likelihood(vae, sp, obs)
    h = xs
    for w, b in hidden:
        h = np.maximum(h @ w + b, 0.0)
    z = target - h @ w_out
    term_size = np.einsum("ij,ij->i", np.abs(z), np.abs(target) + np.abs(h) @ np.abs(w_out))
    np.testing.assert_array_less(np.abs(batch - single), 1e-15 * (np.abs(single) + term_size))
