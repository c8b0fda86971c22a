"""Experiment configuration: a strict, sectioned key-value file.

Every section and key is declared in the schema below; unknown or missing
entries are errors, so typos and keys of older versions cannot silently
fall back to defaults, and a value outside its type or its range (nan or
inf in any float, sizes, layer widths, epochs, sensor counts, the ``mcmc``
step, ``mcmc.retained`` and the ``flow`` shape) fails here, before any
stage runs.  The sections are also the trainers' settings: ``train_vae``,
``train_surrogate`` and ``train_posterior_flow`` take ``vae``,
``surrogate`` and ``inference`` as they are.  Values render with ``repr``
and the canonical dump is stable, which makes the config hash well defined
and lets files round-trip losslessly.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import get_type_hints

from .report import replacing


class ConfigError(ValueError):
    pass


@dataclass
class GridSection:
    height: int
    width: int


@dataclass
class KleSection:
    variance: float
    mean: float
    length_scales: tuple[float, ...]
    per_scale: int
    energy_fraction: float


@dataclass
class VaeSection:
    latent_dim: int
    encoder_hidden: tuple[int, ...]
    decoder_hidden: tuple[int, ...]
    epochs: int
    batch_size: int
    learning_rate: float


@dataclass
class SurrogateSection:
    hidden: tuple[int, ...]
    epochs: int
    batch_size: int
    learning_rate: float
    source: float


@dataclass
class FlowSection:
    n_groups: int
    layers_per_stage: int
    hidden_width: int
    hidden_depth: int
    scale_bound: float


@dataclass
class InferenceSection:
    sample_size: int
    epochs: int
    batch_size: int
    learning_rate: float
    posterior_samples: int


@dataclass
class ObservationSection:
    sensor_rows: int
    sensor_cols: int
    sensor_origin: float
    sensor_spacing: float
    noise_level: float
    truth_scale: float


@dataclass
class McmcSection:
    steps: int
    retained: int
    step_size: float          # 0: pcn_mcmc adapts the step during burn-in


@dataclass
class SeedsSection:
    data: int
    truth: int
    noise: int
    vae: int
    surrogate: int
    flow: int
    mcmc: int
    posterior: int


@dataclass
class ExperimentConfig:
    grid: GridSection
    kle: KleSection
    vae: VaeSection
    surrogate: SurrogateSection
    flow: FlowSection
    inference: InferenceSection
    observation: ObservationSection
    mcmc: McmcSection
    seeds: SeedsSection


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):   # float() also reads nan and inf
        raise ValueError(f"{value!r} is not finite")
    return value


_SECTIONS = get_type_hints(ExperimentConfig)   # section name -> its dataclass

# a field's type hint -> the parser of its text; a tuple is comma-separated
_PARSERS = {
    int: int,
    float: _finite,
    tuple[float, ...]: lambda text: tuple(_finite(v) for v in text.split(",") if v.strip()),
    tuple[int, ...]: lambda text: tuple(int(v) for v in text.split(",") if v.strip()),
}


def _render_value(value) -> str:
    return ",".join(repr(v) for v in value) if isinstance(value, tuple) else repr(value)


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    unknown_sections = set(parser.sections()) - set(_SECTIONS)
    if unknown_sections:
        raise ConfigError(f"unknown config sections: {sorted(unknown_sections)}")

    built = {}
    for name, cls in _SECTIONS.items():
        if name not in parser:
            raise ConfigError(f"missing config section [{name}]")
        section = parser[name]
        declared = get_type_hints(cls)
        unknown = set(section) - set(declared)
        if unknown:
            raise ConfigError(f"unknown keys in [{name}]: {sorted(unknown)}")
        values = {}
        for key, ftype in declared.items():
            if key not in section:
                raise ConfigError(f"missing key '{key}' in [{name}]")
            try:
                values[key] = _PARSERS[ftype](section[key])
            except ValueError as exc:
                raise ConfigError(f"bad value for {name}.{key}: {exc}") from exc
        built[name] = cls(**values)
    config = ExperimentConfig(**built)
    _check_ranges(config)
    return config


def _check_ranges(config: ExperimentConfig) -> None:
    """Reject values that parse but that a later stage could not use."""
    mcmc, flow, latent_dim = config.mcmc, config.flow, config.vae.latent_dim
    # sizes a stage divides by or builds arrays of, then loop counts
    lowest = {key: 1 for key in (
        "vae.latent_dim", "vae.batch_size", "surrogate.batch_size", "inference.batch_size",
        "inference.sample_size", "inference.posterior_samples", "flow.layers_per_stage",
        "flow.hidden_width", "observation.sensor_rows", "observation.sensor_cols")} | {
        key: 0 for key in ("vae.epochs", "surrogate.epochs", "inference.epochs",
                           "flow.hidden_depth")}
    widths = ("vae.encoder_hidden", "vae.decoder_hidden", "surrogate.hidden")
    rates = ("vae.learning_rate", "surrogate.learning_rate", "inference.learning_rate")
    value = {key: attrgetter(key)(config) for key in [*lowest, *widths, *rates]}
    checks = [(key, value[key] >= low, f"{value[key]} must be at least {low}")
              for key, low in lowest.items()] + [
        (key, min(value[key], default=1) >= 1, f"every width in {value[key]} must be at least 1")
        for key in widths] + [
        (key, value[key] > 0.0, f"{value[key]!r} must be positive")
        for key in rates] + [
        ("mcmc.retained", 1 <= mcmc.retained <= mcmc.steps,
         f"{mcmc.retained} is outside [1, mcmc.steps = {mcmc.steps}]"),
        ("mcmc.step_size", 0.0 <= mcmc.step_size <= 1.0,
         f"{mcmc.step_size!r} must be 0 (adapt during burn-in) or lie in (0, 1]"),
        ("flow.n_groups", flow.n_groups >= 2 and latent_dim % flow.n_groups == 0,
         f"{flow.n_groups} must be at least 2 and divide vae.latent_dim = {latent_dim}"),
        ("flow.scale_bound", flow.scale_bound > 0, f"{flow.scale_bound!r} must be positive"),
    ]
    for key, ok, why in checks:
        if not ok:
            raise ConfigError(f"bad value for {key}: {why}")


def render_config(config: ExperimentConfig) -> str:
    out = io.StringIO()
    for name, cls in _SECTIONS.items():
        section = getattr(config, name)
        out.write(f"[{name}]\n")
        for f in fields(cls):
            out.write(f"{f.name} = {_render_value(getattr(section, f.name))}\n")
        out.write("\n")
    return out.getvalue()


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_config(path, config: ExperimentConfig) -> None:
    with replacing(path) as fh:
        fh.write(render_config(config))


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(render_config(config).encode("utf-8")).hexdigest()


def override_all_seeds(config: ExperimentConfig, seed: int) -> None:
    for f in fields(SeedsSection):
        setattr(config.seeds, f.name, seed)


def desk_config() -> ExperimentConfig:
    """A 16x16 configuration that runs the whole pipeline in minutes on a CPU."""
    return ExperimentConfig(
        grid=GridSection(height=16, width=16),
        kle=KleSection(variance=0.5, mean=1.0, length_scales=(0.2, 0.25, 0.3),
                       per_scale=200, energy_fraction=0.95),
        vae=VaeSection(latent_dim=8, encoder_hidden=(256, 128),
                       decoder_hidden=(128, 256), epochs=400, batch_size=64,
                       learning_rate=0.002),
        surrogate=SurrogateSection(hidden=(512, 512), epochs=300, batch_size=64,
                                   learning_rate=0.001, source=3.0),
        flow=FlowSection(n_groups=4, layers_per_stage=8, hidden_width=48,
                         hidden_depth=2, scale_bound=2.0),
        inference=InferenceSection(sample_size=2000, epochs=10, batch_size=100,
                                   learning_rate=0.01, posterior_samples=2000),
        observation=ObservationSection(sensor_rows=8, sensor_cols=8,
                                       sensor_origin=0.0625, sensor_spacing=0.125,
                                       noise_level=0.05, truth_scale=0.25),
        mcmc=McmcSection(steps=10000, retained=2000, step_size=0.0),
        seeds=SeedsSection(data=101, truth=202, noise=303, vae=404,
                           surrogate=505, flow=606, mcmc=707, posterior=808),
    )
