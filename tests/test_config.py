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
    ("mcmc", "step_size", -0.05), ("mcmc", "step_size", 1.5),
    ("mcmc", "target_acceptance_low", 0.0), ("mcmc", "target_acceptance_low", 0.35),
    ("mcmc", "target_acceptance_high", 1.0), ("vae", "batch_size", 0),
    ("surrogate", "batch_size", 0), ("inference", "batch_size", 0),
    ("inference", "sample_size", 0), ("inference", "posterior_samples", 0)])
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
    float: st.floats(allow_nan=False),
    tuple[float, ...]: st.lists(st.floats(allow_nan=False), max_size=4).map(tuple),
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
    cfg.flow.scale_bound = abs(cfg.flow.scale_bound) or 1.0
    for section in (cfg.vae, cfg.surrogate, cfg.inference):
        section.batch_size = max(section.batch_size, 1)
    cfg.inference.sample_size = max(cfg.inference.sample_size, 1)
    cfg.inference.posterior_samples = max(cfg.inference.posterior_samples, 1)
    cfg.mcmc.step_size = min(abs(cfg.mcmc.step_size), 1.0)
    # low in (0, 0.4] and high in [0.5, 0.99], so 0 < low < high < 1
    cfg.mcmc.target_acceptance_low = min(abs(cfg.mcmc.target_acceptance_low), 0.4) or 0.2
    cfg.mcmc.target_acceptance_high = 0.5 + min(abs(cfg.mcmc.target_acceptance_high), 0.49)
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
