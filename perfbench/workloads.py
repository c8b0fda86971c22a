"""The benchmark's three workloads.

Each workload is a closed loop with one caller: ``run_pass`` runs one unit
of work and returns only when it is done, and the next pass starts after
it.  A pass is timed as a whole; ``check`` then inspects its outputs
outside the timed part.  All inputs derive from the workload seed, so every
pass of one run repeats the same work, and its reproducible outputs must be
byte-identical to the first pass's.

The workloads reach krflow only through public entry points:
``krflow.cli.main`` in-process, ``krflow.inference.pcn_mcmc``,
``krflow.darcy.*`` and ``krflow.grf.*``, plus the config helpers and
``krflow.surrogate.load_surrogate``/``surrogate_relative_error`` for the
held-out surrogate check.  Module attributes are looked up at call time so
that a traced pass sees the rebound names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from krflow import cli, config as kconfig, darcy, grf, inference, surrogate

from tracing import STAGES, stage_key

# artifacts whose bytes must repeat for a given seed, with the stage making each
ARTIFACTS = {
    "dataset.bin": "generate-data",
    "vae.bin": "train-vae",
    "surrogate.bin": "train-surrogate",
    "krnet/flow.bin": "infer-krnet",
    "krnet/mean_field.csv": "infer-krnet",
    "mcmc/mean_field.csv": "infer-mcmc",
}

# held-out prior draws use a base seed no workload seed can equal
HELD_OUT_BASE_SEED = 2 ** 32
HELD_OUT_PER_SCALE = 8


@dataclass
class PassResult:
    wall_s: float
    infer_mcmc_s: float
    stage_s: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str | None] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: dict[str, str] = field(default_factory=dict)   # operation -> reason
    layer: dict[str, float] | None = None
    nodes: dict | None = None
    run_dir: Path | None = None


def sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """Shared output checks: failures, finiteness and byte repeatability."""

    def __init__(self, seed: int, runs_root: Path):
        self.seed = seed
        self.runs_root = runs_root
        self.reference: dict[str, str | None] | None = None

    def warm_up(self) -> None:
        """Pay the one-time LAPACK thread start-up and first sparse solve."""
        g = grf.Grid(16, 16)
        spec = grf.CovarianceSpec.isotropic(0.5, 0.25, 1.0)
        grf.truncated_kle(grf.assemble_covariance_matrix(g, spec), 0.95, g)
        darcy.solve_darcy(np.zeros((16, 16)), g)

    def _check_outputs(self, result: PassResult, producer: dict[str, str]) -> None:
        for name, digest in result.digests.items():
            op = producer[name]
            if digest is None:
                result.failures.setdefault(op, f"missing {name}")
            elif self.reference is not None and digest != self.reference.get(name):
                result.failures.setdefault(op, f"{name} differs from the first pass")
        for name, value in result.quality.items():
            if not math.isfinite(value):
                result.failures.setdefault(producer[name], f"{name} is {value}")
        if self.reference is None:
            self.reference = dict(result.digests)


class Pipeline(Workload):
    """The five CLI stages in order on a fresh run directory."""

    def __init__(self, seed: int, runs_root: Path, base: kconfig.ExperimentConfig):
        super().__init__(seed, runs_root)
        self.base = base
        self.passes = 0
        self.producer = dict(ARTIFACTS, surrogate_rel_err="train-surrogate",
                             krnet_rel_err="infer-krnet", mcmc_rel_err="infer-mcmc")

    def setup(self) -> None:
        cfg = self.base
        self.config_path = self.runs_root / "config.ini"
        kconfig.save_config(self.config_path, cfg)
        grid = grf.Grid(cfg.grid.height, cfg.grid.width)
        self.held_out = grf.dataset_to_array(grf.generate_prior_dataset(
            grid, cfg.kle.variance, cfg.kle.mean, cfg.kle.length_scales,
            HELD_OUT_PER_SCALE, HELD_OUT_BASE_SEED + self.seed, cfg.kle.energy_fraction))

    def run_pass(self, tracer=None) -> PassResult:
        self.passes += 1
        run_dir = self.runs_root / f"pass{self.passes}"
        result = PassResult(wall_s=0.0, infer_mcmc_s=0.0, attempted=len(STAGES))
        start = perf_counter()
        for stage in STAGES:
            argv = [stage, "--config", str(self.config_path), "--out", str(run_dir),
                    "--seed-override", str(self.seed)]
            began = perf_counter()
            span = tracer.begin(f"cli.{stage_key(stage)}") if tracer else None
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    result.failures[stage] = f"exit {code}"
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result.failures[stage] = "raised an exception"
            finally:
                if tracer:
                    tracer.end(span)
            result.stage_s[stage_key(stage)] = perf_counter() - began
        result.wall_s = perf_counter() - start
        result.infer_mcmc_s = result.stage_s["infer_mcmc"]
        result.run_dir = run_dir
        return result

    def _quality(self, run_dir: Path) -> dict[str, float]:
        quality = {}
        for stage in ("krnet", "mcmc"):
            try:
                summary = json.loads((run_dir / stage / "summary.json").read_text())
                quality[f"{stage}_rel_err"] = float(summary["relative_error"])
            except (OSError, KeyError, TypeError, ValueError):
                quality[f"{stage}_rel_err"] = float("nan")
        try:
            sp, _ = surrogate.load_surrogate(str(run_dir / "surrogate"))
            quality["surrogate_rel_err"] = surrogate.surrogate_relative_error(
                sp, self.held_out, source=self.base.surrogate.source)
        except (OSError, KeyError, ValueError):
            quality["surrogate_rel_err"] = float("nan")
        return quality

    def check(self, result: PassResult) -> None:
        result.digests = {name: sha256(result.run_dir / name) for name in ARTIFACTS}
        result.quality = self._quality(result.run_dir)
        shutil.rmtree(result.run_dir, ignore_errors=True)
        self._check_outputs(result, self.producer)


def desk_pipeline_config(smoke: bool = False) -> kconfig.ExperimentConfig:
    """desk_config() shapes; epoch budgets cut so three passes fit in 35 s.

    The pCN step is fixed at 0.05, the step tune_pcn_step settles on for the
    default desk seeds.  Left to the tuner, the number of 500-step pilot
    chains depends on the seed (1 to 12 rounds), so some seeds would take a
    quarter longer for the same pipeline.
    """
    cfg = kconfig.desk_config()
    cfg.vae.epochs = 12
    cfg.surrogate.epochs = 6
    cfg.inference.epochs = 2
    cfg.mcmc.step_size = 0.05
    if smoke:
        cfg.kle.per_scale = 20
        cfg.vae.epochs = cfg.surrogate.epochs = cfg.inference.epochs = 1
        cfg.inference.sample_size = cfg.inference.posterior_samples = 200
        cfg.mcmc.steps, cfg.mcmc.retained = 200, 50
    return cfg


def tiny_pipeline_config(smoke: bool = False) -> kconfig.ExperimentConfig:
    """The shapes of tiny_config in tests/test_cli.py, with budgets raised to time."""
    cfg = kconfig.desk_config()
    cfg.grid.height = cfg.grid.width = 8
    cfg.kle.per_scale = 12
    cfg.kle.length_scales = (0.25, 0.3)
    cfg.vae.latent_dim = 4
    cfg.vae.encoder_hidden = (24,)
    cfg.vae.decoder_hidden = (24,)
    cfg.vae.batch_size = 12
    cfg.surrogate.hidden = (32,)
    cfg.surrogate.batch_size = 12
    cfg.flow.n_groups = 2
    cfg.flow.layers_per_stage = 2
    cfg.flow.hidden_width = 8
    cfg.inference.sample_size = 60
    cfg.inference.batch_size = 30
    cfg.inference.posterior_samples = 40
    cfg.observation.sensor_rows = 3
    cfg.observation.sensor_cols = 3
    cfg.observation.sensor_origin = 0.25
    cfg.observation.sensor_spacing = 0.25
    cfg.mcmc.step_size = 0.3
    # raised budgets (the test runs 6, 6, 2 epochs and 300 pCN steps)
    cfg.vae.epochs = 500
    cfg.surrogate.epochs = 300
    cfg.inference.epochs = 300
    cfg.mcmc.steps, cfg.mcmc.retained = 15000, 1000
    if smoke:
        cfg.vae.epochs = cfg.surrogate.epochs = cfg.inference.epochs = 1
        cfg.mcmc.steps, cfg.mcmc.retained = 100, 20
    return cfg


class FvPcn(Workload):
    """pCN over the KL coefficients of a 32x32 field, one FV solve per step."""

    GRID = (32, 32)
    STEPS, RETAINED, STEP_SIZE = 1200, 600, 0.05

    def __init__(self, seed: int, runs_root: Path, smoke: bool = False):
        super().__init__(seed, runs_root)
        if smoke:
            self.STEPS, self.RETAINED = 20, 10

    def setup(self) -> None:
        grid = self.grid = grf.Grid(*self.GRID)
        spec = self.spec = grf.CovarianceSpec.isotropic(0.5, 0.25, 1.0)
        basis = grf.truncated_kle(grf.assemble_covariance_matrix(grid, spec), 0.95, grid)
        self.modes = basis.d_kl
        self.phi = (np.sqrt(basis.eigenvalues)[:, None]
                    * basis.eigenfunctions.reshape(basis.d_kl, -1))
        self.truth = grf.sample_field(basis, spec, np.random.default_rng([self.seed, 0])).values
        self.operator = darcy.lattice_operator(8, 8, 0.0625, 0.125)
        clean = darcy.observe(darcy.solve_darcy(self.truth, grid, source=3.0), self.operator)
        self.obs = darcy.add_noise(clean, 0.05, np.random.default_rng([self.seed, 1]),
                                   self.operator)

    def field(self, xi: np.ndarray) -> np.ndarray:
        return self.spec.mean_value + (xi @ self.phi).reshape(self.GRID)

    def log_like(self, xi: np.ndarray) -> float:
        pressure = darcy.solve_darcy(self.field(xi), self.grid, source=3.0)
        return darcy.log_likelihood(self.obs, darcy.observe(pressure, self.operator))

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult(wall_s=0.0, infer_mcmc_s=0.0, attempted=1)
        start = perf_counter()
        try:
            chain = inference.pcn_mcmc(self.log_like, self.modes, self.STEPS,
                                       self.STEP_SIZE, self.seed, self.RETAINED)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result.failures["pcn_mcmc"] = "exception"
            result.wall_s = result.infer_mcmc_s = perf_counter() - start
            return result
        result.infer_mcmc_s = perf_counter() - start
        mean_field = self.field(chain.states.mean(axis=0))
        error = np.linalg.norm(mean_field - self.truth) / np.linalg.norm(self.truth)
        result.wall_s = perf_counter() - start
        result.quality["mcmc_rel_err"] = float(error)
        result.digests["chain"] = hashlib.sha256(
            chain.states.tobytes() + chain.log_likelihoods.tobytes()).hexdigest()
        return result

    def check(self, result: PassResult) -> None:
        self._check_outputs(result, {"chain": "pcn_mcmc", "mcmc_rel_err": "pcn_mcmc"})


def make(name: str, seed: int, runs_root: Path, smoke: bool = False) -> Workload:
    if name == "desk_pipeline":
        return Pipeline(seed, runs_root, desk_pipeline_config(smoke))
    if name == "tiny_pipeline":
        return Pipeline(seed, runs_root, tiny_pipeline_config(smoke))
    if name == "fv_pcn":
        return FvPcn(seed, runs_root, smoke)
    raise ValueError(f"unknown workload {name!r}")
