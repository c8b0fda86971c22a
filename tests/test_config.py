import math
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krflow.config import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    desk_config,
    load_config,
    override_all_seeds,
    parse_config,
    render_config,
    save_config,
)


def test_render_parse_roundtrip_lossless():
    cfg = desk_config()
    text = render_config(cfg)
    parsed = parse_config(text)
    assert parsed == cfg
    assert render_config(parsed) == text


def test_file_roundtrip(tmp_path):
    cfg = desk_config()
    path = tmp_path / "cfg.ini"
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_unknown_key_rejected():
    text = render_config(desk_config()).replace("[grid]\n", "[grid]\ntypo_key = 3\n")
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(text)


def test_unknown_section_rejected():
    text = render_config(desk_config()) + "\n[extras]\nfoo = 1\n"
    with pytest.raises(ConfigError, match="unknown config sections"):
        parse_config(text)


def test_missing_key_rejected():
    text = render_config(desk_config()).replace("height = 16\n", "")
    with pytest.raises(ConfigError, match="missing key 'height'"):
        parse_config(text)


def test_missing_section_rejected():
    cfg = desk_config()
    text = render_config(cfg)
    start = text.index("[mcmc]")
    end = text.index("[seeds]")
    with pytest.raises(ConfigError, match=r"missing config section \[mcmc\]"):
        parse_config(text[:start] + text[end:])


def test_bad_value_reported_with_location():
    text = render_config(desk_config()).replace("height = 16", "height = tall")
    with pytest.raises(ConfigError, match="grid.height"):
        parse_config(text)


@pytest.mark.parametrize("section,key,value", [
    ("mcmc", "retained", 0), ("mcmc", "retained", 10001), ("flow", "n_groups", 1),
    ("flow", "n_groups", 3), ("flow", "layers_per_stage", 0), ("flow", "scale_bound", 0.0),
    ("mcmc", "step_size", -0.05), ("mcmc", "step_size", 1.5), ("vae", "batch_size", 0),
    ("surrogate", "batch_size", 0), ("inference", "batch_size", 0),
    ("inference", "sample_size", 0), ("inference", "posterior_samples", 0),
    ("vae", "latent_dim", 0), ("vae", "encoder_hidden", (256, 0)),
    ("vae", "decoder_hidden", (0,)), ("flow", "hidden_width", 0),
    ("surrogate", "hidden", (512, 0)), ("flow", "hidden_depth", -1), ("vae", "epochs", -1),
    ("surrogate", "epochs", -1), ("inference", "epochs", -1),
    ("observation", "sensor_rows", 0), ("observation", "sensor_cols", 0),
    *[(section, "learning_rate", value) for section in ("vae", "surrogate", "inference")
      for value in (-1.0, 0.0, math.nan, math.inf)],
    # float() reads nan and inf; every other float field and float-tuple entry refuses them too
    *[(section, key, value) for section, key in (
        ("kle", "variance"), ("kle", "mean"), ("kle", "energy_fraction"), ("surrogate", "source"),
        ("flow", "scale_bound"), ("observation", "sensor_origin"),
        ("observation", "sensor_spacing"), ("observation", "noise_level"),
        ("observation", "truth_scale"), ("mcmc", "step_size")) for value in (math.nan, math.inf)],
    ("kle", "length_scales", (0.2, math.nan)), ("kle", "length_scales", (math.inf,)),
    ("surrogate", "source", -math.inf)])
def test_value_outside_its_range_names_its_key(section, key, value):
    cfg = desk_config()
    setattr(getattr(cfg, section), key, value)
    with pytest.raises(ConfigError, match=rf"^bad value for {section}\.{key}: "):
        parse_config(render_config(cfg))


def test_hash_changes_with_any_field():
    a = desk_config()
    b = desk_config()
    assert config_hash(a) == config_hash(b)
    b.seeds.vae += 1
    assert config_hash(a) != config_hash(b)
    c = desk_config()
    c.kle.length_scales = (0.2, 0.25)
    assert config_hash(a) != config_hash(c)


def test_override_all_seeds():
    cfg = desk_config()
    override_all_seeds(cfg, 42)
    assert {cfg.seeds.data, cfg.seeds.truth, cfg.seeds.noise, cfg.seeds.vae,
            cfg.seeds.surrogate, cfg.seeds.flow, cfg.seeds.mcmc,
            cfg.seeds.posterior} == {42}


# one strategy per field type of the schema
FIELD_VALUES = {
    int: st.integers(-2 ** 63, 2 ** 63),
    float: st.floats(allow_nan=False, allow_infinity=False),
    tuple[float, ...]: st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                max_size=4).map(tuple),
    tuple[int, ...]: st.lists(st.integers(-2 ** 63, 2 ** 63), max_size=4).map(tuple),
}
SECTIONS = get_type_hints(ExperimentConfig)


def test_schema_uses_only_generated_field_types():
    used = {t for cls in SECTIONS.values() for t in get_type_hints(cls).values()}
    assert used == set(FIELD_VALUES)


def into_range(cfg):
    """Move the values that parse_config range-checks into their ranges."""
    cfg.mcmc.steps = max(cfg.mcmc.steps, 1)
    cfg.mcmc.retained = 1 + cfg.mcmc.retained % cfg.mcmc.steps
    cfg.flow.n_groups = 2 + cfg.flow.n_groups % 15
    cfg.vae.latent_dim = cfg.flow.n_groups * (1 + cfg.vae.latent_dim % 64)
    cfg.flow.layers_per_stage = max(cfg.flow.layers_per_stage, 1)
    cfg.flow.hidden_width = max(cfg.flow.hidden_width, 1)
    cfg.flow.hidden_depth = max(cfg.flow.hidden_depth, 0)
    cfg.flow.scale_bound = abs(cfg.flow.scale_bound) or 1.0
    for section in (cfg.vae, cfg.surrogate, cfg.inference):
        section.batch_size = max(section.batch_size, 1)
        section.learning_rate = min(abs(section.learning_rate), 1e300) or 1e-3
    cfg.inference.sample_size = max(cfg.inference.sample_size, 1)
    cfg.inference.posterior_samples = max(cfg.inference.posterior_samples, 1)
    cfg.mcmc.step_size = min(abs(cfg.mcmc.step_size), 1.0)
    for section in (cfg.vae, cfg.surrogate, cfg.inference):
        section.epochs = max(section.epochs, 0)
    cfg.vae.encoder_hidden = tuple(max(w, 1) for w in cfg.vae.encoder_hidden)
    cfg.vae.decoder_hidden = tuple(max(w, 1) for w in cfg.vae.decoder_hidden)
    cfg.surrogate.hidden = tuple(max(w, 1) for w in cfg.surrogate.hidden)
    cfg.observation.sensor_rows = max(cfg.observation.sensor_rows, 1)
    cfg.observation.sensor_cols = max(cfg.observation.sensor_cols, 1)
    return cfg


configs = st.builds(ExperimentConfig, **{
    name: st.builds(cls, **{key: FIELD_VALUES[t] for key, t in get_type_hints(cls).items()})
    for name, cls in SECTIONS.items()}).map(into_range)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(configs)
def test_generated_config_roundtrips_with_equal_hash(cfg):
    parsed = parse_config(render_config(cfg))
    assert parsed == cfg
    assert config_hash(parsed) == config_hash(cfg)
