"""Command-line pipeline: data generation, training, inference, reporting.

Every stage reads one config file and one run directory.  Stages record the
config hash in their outputs and refuse to consume upstream artifacts whose
hash differs, so a run directory always holds a consistent chain.  Outputs
are byte-reproducible given the same config; per-stage wall times go to
separate ``*_timing.json`` files, which are the only non-reproducible
artifacts.

Exit codes: 0 success, 1 validation/dependency error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from .autodiff import NonFiniteError
from .config import (ConfigError, ExperimentConfig, config_hash, load_config,
                     override_all_seeds)
from .darcy import (DarcySolveError, add_noise, lattice_operator, load_observations_csv,
                    observe, save_observations_csv, solve_darcy)
from .flow import FlowConfig
from .grf import (CovarianceSpec, Grid, assemble_covariance_matrix, dataset_to_array,
                  generate_prior_dataset, load_dataset, sample_field, save_dataset,
                  save_manifest, truncated_kle)
from .inference import (make_surrogate_loglike, pcn_mcmc, posterior_moments,
                        posterior_moments_from_states, relative_error, train_posterior_flow)
from .params import TrainingDiverged, load_model, save_model
from .report import (load_field_csv, read_json, replacing, save_field_csv, save_field_pgm,
                     write_json)
from .surrogate import SurrogateParams, energy_loss, surrogate_relative_error, train_surrogate
from .vae import VaeParams, elbo_batch, sample_prior, train_vae


class DependencyError(RuntimeError):
    pass


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise DependencyError(f"missing {path.name}; run '{producer}' first")
    return path


def _check_hash(meta_path: Path, producer: str, expected: str) -> None:
    recorded = read_json(_require(meta_path, producer), "config_hash")["config_hash"]
    if recorded != expected:
        raise DependencyError(
            f"config hash mismatch for {meta_path.name}: the run directory was built "
            f"with a different configuration")


def _write_timing(out_dir: Path, stage: str, seconds: float) -> None:
    write_json(out_dir / f"{stage}_timing.json", {"stage": stage,
                                                  "wall_time_seconds": seconds})


def cmd_generate_data(config: ExperimentConfig, out_dir: Path) -> None:
    start = time.perf_counter()
    grid = Grid(config.grid.height, config.grid.width)
    chash = config_hash(config)

    samples = generate_prior_dataset(
        grid, config.kle.variance, config.kle.mean, config.kle.length_scales,
        config.kle.per_scale, config.seeds.data, config.kle.energy_fraction)
    save_dataset(out_dir / "dataset.bin", dataset_to_array(samples))
    save_manifest(out_dir / "dataset_manifest.csv", samples)

    # held-out truth from the configured in-distribution length scale
    ob = config.observation
    spec = CovarianceSpec.isotropic(config.kle.variance, ob.truth_scale, config.kle.mean)
    basis = truncated_kle(assemble_covariance_matrix(grid, spec),
                          config.kle.energy_fraction, grid)
    truth = sample_field(basis, spec, np.random.default_rng(config.seeds.truth),
                         seed=config.seeds.truth)
    save_field_csv(out_dir / "truth_field.csv", truth.values)
    save_field_pgm(out_dir / "truth_field.pgm", truth.values)

    pressure = solve_darcy(truth.values, grid, source=config.surrogate.source)
    save_field_csv(out_dir / "truth_pressure.csv", pressure)
    save_field_pgm(out_dir / "truth_pressure.pgm", pressure)

    operator = lattice_operator(ob.sensor_rows, ob.sensor_cols, ob.sensor_origin,
                                ob.sensor_spacing)
    obs = add_noise(observe(pressure, operator), ob.noise_level,
                    np.random.default_rng(config.seeds.noise), operator)
    save_observations_csv(out_dir / "observations.csv", obs)
    write_json(out_dir / "generate_data_meta.json", {
        "config_hash": chash, "n_samples": len(samples), "grid": [grid.height, grid.width],
        "truth_scale": ob.truth_scale, "noise_level": ob.noise_level})
    _write_timing(out_dir, "generate_data", time.perf_counter() - start)
    print(f"generate-data: {len(samples)} samples on {grid.height}x{grid.width}, "
          f"{operator.n_sensors} sensors")


def _load_stage_inputs(config: ExperimentConfig, out_dir: Path):
    chash = config_hash(config)
    _check_hash(out_dir / "generate_data_meta.json", "generate-data", chash)
    return chash, load_dataset(out_dir / "dataset.bin")


def cmd_train_vae(config: ExperimentConfig, out_dir: Path) -> None:
    start = time.perf_counter()
    chash, data = _load_stage_inputs(config, out_dir)
    vae = train_vae(data, config.vae, config.seeds.vae, out_dir / "vae_loss_curve.csv")
    final_loss, _ = elbo_batch(data[: min(len(data), 256)], vae,
                               np.random.default_rng(config.seeds.vae))
    save_model(str(out_dir / "vae"), vae, seed=config.seeds.vae, epochs=config.vae.epochs,
               final_loss=final_loss, config_hash=chash)
    _write_timing(out_dir, "train_vae", time.perf_counter() - start)
    print(f"train-vae: d={vae.latent_dim}, final loss {final_loss:.4f}")


def cmd_train_surrogate(config: ExperimentConfig, out_dir: Path) -> None:
    start = time.perf_counter()
    chash, data = _load_stage_inputs(config, out_dir)
    sp = train_surrogate(data, config.surrogate, config.seeds.surrogate,
                         out_dir / "surrogate_loss_curve.csv")
    final_loss = energy_loss(data[: min(len(data), 128)], sp, source=config.surrogate.source)
    rel = surrogate_relative_error(sp, data[: min(len(data), 16)],
                                   source=config.surrogate.source)
    save_model(str(out_dir / "surrogate"), sp, seed=config.seeds.surrogate,
               final_loss=final_loss, config_hash=chash, relative_error_sample=rel)
    _write_timing(out_dir, "train_surrogate", time.perf_counter() - start)
    print(f"train-surrogate: final loss {final_loss:.5f}, "
          f"sample relative error {rel:.4f}")


def _load_trained_components(config: ExperimentConfig, out_dir: Path):
    chash = config_hash(config)
    for meta, producer in (("generate_data_meta.json", "generate-data"),
                           ("vae.json", "train-vae"), ("surrogate.json", "train-surrogate")):
        _check_hash(out_dir / meta, producer, chash)
    vae, _ = load_model(VaeParams, str(out_dir / "vae"))
    sp, _ = load_model(SurrogateParams, str(out_dir / "surrogate"))
    # a CSV cut exactly at a line end parses cleanly, so check the sizes
    obs_path = _require(out_dir / "observations.csv", "generate-data")
    obs = load_observations_csv(obs_path)
    n_sensors = config.observation.sensor_rows * config.observation.sensor_cols
    if obs.operator.n_sensors != n_sensors:
        raise ValueError(f"{obs_path}: {obs.operator.n_sensors} observations, "
                         f"expected {n_sensors}")
    truth_path = out_dir / "truth_field.csv"
    truth = load_field_csv(truth_path)
    grid_shape = (config.grid.height, config.grid.width)
    if truth.shape != grid_shape:
        raise ValueError(f"{truth_path}: field shape {truth.shape}, expected {grid_shape}")
    return chash, vae, sp, obs, truth


def _write_posterior_outputs(stage_dir: Path, summary, chash: str, method: str,
                             latent_dim: int, extra: dict) -> None:
    save_field_csv(stage_dir / "mean_field.csv", summary.mean_field)
    save_field_pgm(stage_dir / "mean_field.pgm", summary.mean_field)
    save_field_csv(stage_dir / "variance_field.csv", summary.variance_field)
    save_field_pgm(stage_dir / "variance_field.pgm", summary.variance_field)
    write_json(stage_dir / "summary.json", {
        "config_hash": chash, "method": method, "d": latent_dim,
        "relative_error": summary.relative_error, "n_samples": summary.n_samples, **extra})


def cmd_infer_krnet(config: ExperimentConfig, out_dir: Path) -> None:
    start = time.perf_counter()
    chash, vae, sp, obs, truth = _load_trained_components(config, out_dir)
    stage_dir = out_dir / "krnet"
    stage_dir.mkdir(parents=True, exist_ok=True)

    flow_config = FlowConfig(dim=vae.latent_dim, **dataclasses.asdict(config.flow))
    flow = train_posterior_flow(flow_config, vae, sp, obs, config.inference,
                                config.seeds.flow, stage_dir / "loss_curve.csv")
    save_model(str(stage_dir / "flow"), flow, seed=config.seeds.flow, config_hash=chash)

    summary = posterior_moments(flow, vae, config.inference.posterior_samples,
                                np.random.default_rng(config.seeds.posterior),
                                exact_field=truth)
    # error of the decoder prior's mean field, for reference
    prior_mean = sample_prior(vae, config.inference.posterior_samples,
                              np.random.default_rng(config.seeds.posterior)).mean(axis=0)
    prior_err = relative_error(prior_mean, truth)
    _write_posterior_outputs(stage_dir, summary, chash, "krnet", vae.latent_dim,
                             {"acceptance_rate": None,
                              "prior_mean_relative_error": prior_err})
    _write_timing(stage_dir, "infer_krnet", time.perf_counter() - start)
    print(f"infer-krnet: relative error {summary.relative_error:.4f} "
          f"(prior-mean reference {prior_err:.4f})")


def cmd_infer_mcmc(config: ExperimentConfig, out_dir: Path) -> None:
    start = time.perf_counter()
    chash, vae, sp, obs, truth = _load_trained_components(config, out_dir)
    stage_dir = out_dir / "mcmc"
    stage_dir.mkdir(parents=True, exist_ok=True)

    chain = pcn_mcmc(make_surrogate_loglike(vae, sp, obs), vae.latent_dim,
                     config.mcmc.steps, config.mcmc.step_size, config.seeds.mcmc,
                     config.mcmc.retained)
    summary = posterior_moments_from_states(chain.states, vae, exact_field=truth)
    _write_posterior_outputs(stage_dir, summary, chash, "mcmc", vae.latent_dim,
                             {"acceptance_rate": chain.acceptance_rate,
                              "step_size": chain.step_size,
                              "total_steps": chain.total_steps,
                              "likelihood_evaluations": chain.likelihood_evaluations})
    _write_timing(stage_dir, "infer_mcmc", time.perf_counter() - start)
    print(f"infer-mcmc: relative error {summary.relative_error:.4f}, "
          f"acceptance {chain.acceptance_rate:.2%}, step {chain.step_size:.4f}")


def cmd_report(run_dirs: list[Path], out_path: Path | None) -> None:
    rows = []
    for run_dir in run_dirs:
        summary = read_json(_require(run_dir / "summary.json", "an inference stage"),
                            "method", "d", "relative_error")
        timing_files = sorted(run_dir.glob("*_timing.json"))
        wall = sum(read_json(p, "wall_time_seconds")["wall_time_seconds"] for p in timing_files)
        acc = summary.get("acceptance_rate")
        rows.append((summary["method"], summary["d"], summary["relative_error"],
                     wall, "" if acc is None else repr(acc)))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = [["method", "d", "relative_error", "wall_time", "acceptance_rate"]]
    lines += [[r[0], str(r[1]), repr(r[2]), repr(r[3]), r[4]] for r in rows]
    text = "\n".join(",".join(line) for line in lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with replacing(out_path) as fh:
            fh.write(text)
        print(f"report: {len(rows)} rows -> {out_path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krflow",
        description="Latent-flow Bayesian inversion pipeline for Darcy flow")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stage(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, type=Path, help="config file path")
        p.add_argument("--out", required=True, type=Path, help="run directory")
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace every stage seed with this value")
        return p

    add_stage("generate-data", "build the prior dataset, truth field and observations")
    add_stage("train-vae", "train the field prior (encoder/decoder)")
    add_stage("train-surrogate", "train the energy-trained pressure surrogate")
    add_stage("infer-krnet", "fit the latent coupling flow to the posterior")
    add_stage("infer-mcmc", "run the pCN baseline in the latent space")

    rep = sub.add_parser("report", help="tabulate finished runs")
    rep.add_argument("run_dirs", nargs="+", type=Path,
                     help="stage output directories containing summary.json")
    rep.add_argument("--out", type=Path, default=None, help="write CSV here")
    return parser


_STAGES = {
    "generate-data": cmd_generate_data,
    "train-vae": cmd_train_vae,
    "train-surrogate": cmd_train_surrogate,
    "infer-krnet": cmd_infer_krnet,
    "infer-mcmc": cmd_infer_mcmc,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            cmd_report(args.run_dirs, args.out)
            return 0
        config = load_config(args.config)
        if args.seed_override is not None:
            override_all_seeds(config, args.seed_override)
        args.out.mkdir(parents=True, exist_ok=True)
        _STAGES[args.command](config, args.out)
        return 0
    except (ConfigError, DependencyError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TrainingDiverged, DarcySolveError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
