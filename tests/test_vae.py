import numpy as np
import pytest

from krflow import autodiff as ad
from krflow.config import VaeSection
from krflow.grf import Grid, dataset_to_array, generate_prior_dataset
from krflow.inference import posterior_moments_from_states
from krflow.vae import (
    DECODE_BLOCK,
    ElboBreakdown,
    VaeParams,
    _elbo_terms,
    decode_batch,
    elbo_batch,
    encode_batch,
    init_vae,
    reparameterize,
    sample_prior,
    train_vae,
)
from krflow.params import TRAIN_DTYPE, ParamStore, load_model, save_model

H = W = 6
D = 3


@pytest.fixture
def vae():
    return init_vae(H, W, D, seed=0, encoder_hidden=(16, 12), decoder_hidden=(12, 16))


@pytest.fixture
def field(vae):
    return np.random.default_rng(1).standard_normal((H, W))


class TestEncodeDecode:
    def test_encode_deterministic_and_shapes(self, vae, field):
        mu1, lv1 = encode_batch(field.reshape(1, -1), vae.store, vae)
        mu2, lv2 = encode_batch(field.reshape(1, -1), vae.store, vae)
        assert mu1.shape == (1, D) and lv1.shape == (1, D)
        np.testing.assert_array_equal(mu1, mu2)
        np.testing.assert_array_equal(lv1, lv2)

    def test_decode_deterministic_and_shapes(self, vae):
        x = np.random.default_rng(2).standard_normal((1, D))
        mu1, lv1 = decode_batch(x, vae.store, vae)
        mu2, lv2 = decode_batch(x, vae.store, vae)
        assert mu1.shape == (1, H * W) and lv1.shape == (1, H * W)
        np.testing.assert_array_equal(mu1, mu2)
        np.testing.assert_array_equal(lv1, lv2)

    def test_logvar_clamped(self, vae):
        # extreme latents drive the raw head far out; the clamp must hold
        x = np.random.default_rng(3).standard_normal((1, D)) * 1000.0
        _, lv = decode_batch(x, vae.store, vae)
        assert lv.max() <= 10.0 and lv.min() >= -10.0

    def test_encoder_gradient_matches_finite_differences(self, vae, field):
        y = field.reshape(1, -1)
        store = ParamStore({k: v for k, v in vae.store.items() if k.startswith("enc.")})

        def program(leaves):
            mu, _ = encode_batch(y, leaves, vae)
            return ad.sum_(mu)

        _, grads = ad.evaluate_with_gradients(program, store)
        h = 1e-5
        rng = np.random.default_rng(4)
        for name in store:
            flat = store[name].ravel()
            for k in rng.choice(flat.size, size=min(5, flat.size), replace=False):
                orig = flat[k]
                flat[k] = orig + h
                up, _ = ad.evaluate_with_gradients(program, store)
                flat[k] = orig - h
                down, _ = ad.evaluate_with_gradients(program, store)
                flat[k] = orig
                fd = (up - down) / (2 * h)
                scale = max(abs(fd), abs(grads[name].ravel()[k]), 1e-6)
                assert abs(grads[name].ravel()[k] - fd) / scale < 1e-5


class TestReparameterize:
    def test_zero_noise_returns_mean(self):
        mu = np.array([1.0, -2.0, 0.5])
        out = reparameterize(mu, np.array([0.3, -1.0, 2.0]), np.zeros(3))
        np.testing.assert_array_equal(out, mu)

    def test_unit_variance_unit_noise(self):
        mu = np.array([1.0, -2.0, 0.5])
        eps = np.array([1.0, 0.0, 0.0])
        out = reparameterize(mu, np.zeros(3), eps)
        np.testing.assert_allclose(out, mu + eps)

    def test_empirical_covariance_matches_logvar(self):
        rng = np.random.default_rng(5)
        logvar = np.array([0.4, -0.8, 1.2])
        draws = np.stack([reparameterize(np.zeros(3), logvar, rng.standard_normal(3))
                          for _ in range(10000)])
        rel = np.abs(draws.var(axis=0) - np.exp(logvar)) / np.exp(logvar)
        assert rel.max() < 0.05


class TestElbo:
    def test_breakdown_additive(self, vae):
        batch = np.random.default_rng(6).standard_normal((4, H, W))
        loss, bd = elbo_batch(batch, vae, np.random.default_rng(7))
        assert bd.total == pytest.approx(
            bd.reconstruction_term + bd.prior_term + bd.entropy_term, abs=1e-12)
        assert loss == pytest.approx(-bd.total, abs=1e-12)

    def test_planted_perfect_reconstruction(self):
        # decoder forced to mu_de = y, logvar_de = 0; encoder mu = 0, logvar = 0;
        # eps = 0: reconstruction = -(HW/2) log 2pi and the sampled KL part is 0
        vae = init_vae(H, W, D, seed=0, encoder_hidden=(8,), decoder_hidden=(8,))
        y = np.random.default_rng(8).standard_normal((1, H * W))
        mu_en = np.zeros((1, D))
        logvar_en = np.zeros((1, D))
        x = reparameterize(mu_en, logvar_en, np.zeros((1, D)))
        from krflow.nets import diag_gaussian_logpdf, std_normal_logpdf
        recon = diag_gaussian_logpdf(y, y, np.zeros_like(y)).mean()
        log_q = diag_gaussian_logpdf(x, mu_en, logvar_en).mean()
        log_p = std_normal_logpdf(x).mean()
        assert recon == pytest.approx(-(H * W / 2) * np.log(2 * np.pi))
        assert log_q - log_p == pytest.approx(0.0, abs=1e-14)

    def test_sampled_kl_matches_closed_form(self, vae):
        # Monte Carlo estimate of log q - log p over 10^4 draws vs the
        # closed-form diagonal-Gaussian KL, within 2%
        rng = np.random.default_rng(9)
        mu = rng.standard_normal((1, D))
        logvar = rng.standard_normal((1, D)) * 0.5
        from krflow.nets import diag_gaussian_logpdf, std_normal_logpdf
        samples = []
        for _ in range(10000):
            x = reparameterize(mu, logvar, rng.standard_normal((1, D)))
            samples.append(float(diag_gaussian_logpdf(x, mu, logvar)[0]
                                 - std_normal_logpdf(x)[0]))
        closed = 0.5 * np.sum(mu ** 2 + np.exp(logvar) - 1.0 - logvar)
        assert np.mean(samples) == pytest.approx(closed, rel=0.02)

    def test_batch_of_identical_samples_equals_single(self, vae, field):
        batch1 = field[None]
        batch2 = np.stack([field, field])
        # same eps for every row: force it by a constant-noise generator
        class ConstRng:
            def standard_normal(self, shape):
                return np.ones(shape) * 0.3

        loss1, _ = elbo_batch(batch1, vae, ConstRng())
        loss2, _ = elbo_batch(batch2, vae, ConstRng())
        assert loss1 == pytest.approx(loss2, rel=1e-12)

    def test_frozen_standard_encoder_kl_centred_at_zero(self, vae):
        # with encoder output (mu = 0, logvar = 0) the sampled KL term has
        # expectation 0; check within 3 standard errors over 10^4 draws
        rng = np.random.default_rng(10)
        from krflow.nets import diag_gaussian_logpdf, std_normal_logpdf
        vals = []
        for _ in range(10000):
            x = reparameterize(np.zeros((1, D)), np.zeros((1, D)),
                               rng.standard_normal((1, D)))
            vals.append(float(diag_gaussian_logpdf(x, np.zeros((1, D)), np.zeros((1, D)))[0]
                              - std_normal_logpdf(x)[0]))
        se = np.std(vals) / np.sqrt(len(vals))
        # with q == p the sampled term is identically zero, hence the epsilon
        assert abs(np.mean(vals)) <= 3 * se + 1e-12

    def test_elbo_gradient_matches_finite_differences(self):
        vae = init_vae(4, 4, 2, seed=3, encoder_hidden=(6,), decoder_hidden=(6,))
        batch = np.random.default_rng(11).standard_normal((2, 4, 4))
        eps = np.random.default_rng(12).standard_normal((2, 2))
        store = vae.store
        y_flat = batch.reshape(2, -1)

        def program(leaves):
            recon, log_p, log_q = _elbo_terms(leaves, y_flat, eps, vae)
            return ad.mul(ad.add(ad.sub(recon, log_q), log_p), -1.0)

        _, grads = ad.evaluate_with_gradients(program, store)
        h = 1e-5
        rng = np.random.default_rng(13)
        worst = 0.0
        for name in store:
            flat = store[name].ravel()
            for k in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[k]
                flat[k] = orig + h
                up, _ = ad.evaluate_with_gradients(program, store)
                flat[k] = orig - h
                down, _ = ad.evaluate_with_gradients(program, store)
                flat[k] = orig
                fd = (up - down) / (2 * h)
                scale = max(abs(fd), abs(grads[name].ravel()[k]), 1e-6)
                worst = max(worst, abs(grads[name].ravel()[k] - fd) / scale)
        assert worst < 1e-5


class TestTraining:
    def _dataset(self):
        grid = Grid(8, 8)
        return dataset_to_array(
            generate_prior_dataset(grid, 0.5, 1.0, [0.25, 0.35], 40, base_seed=21))

    def test_zero_epochs_returns_initialization(self):
        data = self._dataset()
        config = VaeSection(latent_dim=3, encoder_hidden=(16,), decoder_hidden=(16,),
                            epochs=0, batch_size=16, learning_rate=1e-3)
        trained = train_vae(data, config, seed=5)
        fresh = init_vae(8, 8, 3, seed=5, encoder_hidden=(16,), decoder_hidden=(16,))
        assert trained.store == ParamStore(fresh.store, TRAIN_DTYPE)

    def test_loss_decreases_and_curve_written(self, tmp_path):
        data = self._dataset()
        curve_path = tmp_path / "curve.csv"
        config = VaeSection(latent_dim=3, encoder_hidden=(24,), decoder_hidden=(24,),
                            epochs=12, batch_size=16, learning_rate=1e-3)
        train_vae(data, config, seed=5, curve_path=curve_path)
        rows = curve_path.read_text().strip().splitlines()
        assert rows[0] == "epoch,loss"
        losses = [float(r.split(",")[1]) for r in rows[1:]]
        assert len(losses) == 12
        assert losses[-1] < losses[0]

    def test_determinism(self):
        data = self._dataset()
        config = VaeSection(latent_dim=2, encoder_hidden=(12,), decoder_hidden=(12,),
                            epochs=3, batch_size=20, learning_rate=1e-3)
        a = train_vae(data, config, seed=9)
        b = train_vae(data, config, seed=9)
        assert list(a.store) == list(b.store)
        for k in a.store:
            assert a.store[k].tobytes() == b.store[k].tobytes()


class TestSamplePrior:
    def test_empty(self, vae):
        out = sample_prior(vae, 0, np.random.default_rng(0))
        assert out.shape == (0, H, W)

    def test_reproducible(self, vae):
        a = sample_prior(vae, 5, np.random.default_rng(3))
        b = sample_prior(vae, 5, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_trained_prior_mean_near_data_mean(self):
        grid = Grid(8, 8)
        data = dataset_to_array(
            generate_prior_dataset(grid, 0.5, 1.0, [0.3], 400, base_seed=33))
        config = VaeSection(latent_dim=8, encoder_hidden=(96, 64), decoder_hidden=(64, 96),
                            epochs=400, batch_size=64, learning_rate=2e-3)
        vae = train_vae(data, config, seed=7)
        fields = sample_prior(vae, 2000, np.random.default_rng(17))
        rms = np.sqrt(np.mean((fields.mean(axis=0) - 1.0) ** 2))
        assert rms < 0.15


@pytest.fixture(scope="module")
def trained_vae():
    data = dataset_to_array(generate_prior_dataset(Grid(H, W), 0.5, 1.0, [0.3], 40, base_seed=5))
    config = VaeSection(latent_dim=D, encoder_hidden=(16,), decoder_hidden=(12, 16),
                        epochs=3, batch_size=20, learning_rate=1e-2)
    return train_vae(data, config, seed=3)


_BLOCK_EDGES = [1, DECODE_BLOCK - 1, DECODE_BLOCK, DECODE_BLOCK + 1, 2 * DECODE_BLOCK + 3]


class TestDecodeInBlocks:
    """Decoding in blocks gives the bytes of one decode_batch over all rows."""

    @pytest.mark.parametrize("n", _BLOCK_EDGES)
    def test_posterior_moments(self, trained_vae, n):
        states = np.random.default_rng(n).standard_normal((n, D))
        summary = posterior_moments_from_states(states, trained_vae)
        mu, logvar = decode_batch(states, trained_vae.store, trained_vae)
        assert summary.n_samples == n
        assert summary.mean_field.tobytes() == mu.mean(axis=0).reshape(H, W).tobytes()
        assert summary.variance_field.tobytes() == \
            np.exp(logvar).mean(axis=0).reshape(H, W).tobytes()

    @pytest.mark.parametrize("n", _BLOCK_EDGES)
    def test_sample_prior(self, trained_vae, n):
        fields = sample_prior(trained_vae, n, np.random.default_rng(n))
        x = np.random.default_rng(n).standard_normal((n, D))
        expected = decode_batch(x, trained_vae.store, trained_vae)[0].reshape(n, H, W)
        assert fields.tobytes() == expected.tobytes()
        # the mean over the draws, as the CLI takes it, sums in the same order
        assert fields.mean(axis=0).tobytes() == expected.mean(axis=0).tobytes()


def test_checkpoint_roundtrip(tmp_path, vae):
    prefix = str(tmp_path / "vae")
    save_model(prefix, vae, seed=0, epochs=10, final_loss=3.5, tag="x")
    loaded, meta = load_model(VaeParams, prefix)
    assert meta["final_loss"] == 3.5 and meta["tag"] == "x"
    assert loaded.latent_dim == vae.latent_dim
    assert loaded.store == vae.store
    x = np.random.default_rng(2).standard_normal((1, D))
    np.testing.assert_array_equal(decode_batch(x, loaded.store, loaded)[0],
                                  decode_batch(x, vae.store, vae)[0])


def test_checkpoint_extra_key_naming_a_field_is_refused(tmp_path, vae):
    prefix = tmp_path / "vae"
    with pytest.raises(ValueError, match=r"\['latent_dim'\] name fields of the model"):
        save_model(str(prefix), vae, latent_dim=5)
    assert not list(tmp_path.iterdir())
