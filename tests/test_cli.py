import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from krflow import autodiff as ad
from krflow.cli import main
from krflow.config import desk_config, save_config
from krflow.darcy import lattice_operator, observe, solve_darcy
from krflow.grf import Grid
from krflow.inference import PREFETCH_WIDTH
from krflow.params import ParamStore
from krflow.report import load_field_csv, read_json, write_json


def tiny_config():
    cfg = desk_config()
    cfg.grid.height = cfg.grid.width = 8
    cfg.kle.per_scale = 12
    cfg.kle.length_scales = (0.25, 0.3)
    cfg.vae.latent_dim = 4
    cfg.vae.encoder_hidden = (24,)
    cfg.vae.decoder_hidden = (24,)
    cfg.vae.epochs = 6
    cfg.vae.batch_size = 12
    cfg.surrogate.hidden = (32,)
    cfg.surrogate.epochs = 6
    cfg.surrogate.batch_size = 12
    cfg.flow.n_groups = 2
    cfg.flow.layers_per_stage = 2
    cfg.flow.hidden_width = 8
    cfg.inference.sample_size = 60
    cfg.inference.epochs = 2
    cfg.inference.batch_size = 30
    cfg.inference.posterior_samples = 40
    cfg.observation.sensor_rows = 3
    cfg.observation.sensor_cols = 3
    cfg.observation.sensor_origin = 0.25
    cfg.observation.sensor_spacing = 0.25
    cfg.mcmc.steps = 300
    cfg.mcmc.retained = 100
    cfg.mcmc.step_size = 0.3
    return cfg


def _entry_ends(path):
    """Offsets at which a container's header ("") and each of its entries end."""
    ends = {"": 12}
    end = 12
    for name, arr in ParamStore.load(path).items():
        end += 4 + len(name.encode()) + 4 + 8 * arr.ndim + 8 * arr.size
        ends[name] = end
    return ends


def _edit_json(path, **changes):
    write_json(path, {**read_json(path), **changes})


def _rename_entry(path, old, new):
    """Rename a container entry in place; both names must have the same length."""
    data = path.read_bytes()
    old, new = (struct.pack("<I", len(name)) + name.encode() for name in (old, new))
    assert data.count(old) == 1 and len(old) == len(new)
    path.write_bytes(data.replace(old, new))


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    cfg_path = base / "cfg.ini"
    save_config(cfg_path, tiny_config())
    out = base / "run"
    for stage in ("generate-data", "train-vae", "train-surrogate",
                  "infer-krnet", "infer-mcmc"):
        assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0
    return base, cfg_path, out


class TestGenerateData:
    def test_artifacts_present(self, run_dir):
        _, _, out = run_dir
        for name in ("dataset.bin", "dataset_manifest.csv", "truth_field.csv",
                     "truth_field.pgm", "truth_pressure.csv", "observations.csv",
                     "generate_data_meta.json"):
            assert (out / name).exists(), name

    def test_sample_count(self, run_dir):
        _, _, out = run_dir
        meta = read_json(out / "generate_data_meta.json")
        assert meta["n_samples"] == 24  # 2 scales x 12

    def test_observations_match_independent_resolve(self, run_dir):
        _, _, out = run_dir
        cfg = tiny_config()
        truth = load_field_csv(out / "truth_field.csv")
        grid = Grid(cfg.grid.height, cfg.grid.width)
        pressure = solve_darcy(truth, grid, source=cfg.surrogate.source)
        op = lattice_operator(cfg.observation.sensor_rows, cfg.observation.sensor_cols,
                              cfg.observation.sensor_origin, cfg.observation.sensor_spacing)
        clean = observe(pressure, op)
        rows = (out / "observations.csv").read_text().strip().splitlines()[1:]
        stored_values = np.array([float(r.split(",")[2]) for r in rows])
        stored_sigma = np.array([float(r.split(",")[3]) for r in rows])
        # noisy value minus the re-solved clean value must be noise-sized
        assert np.abs(stored_values - clean).max() < 6 * stored_sigma.max()
        # and the recorded sigmas must equal the model built from the re-solve
        level = cfg.observation.noise_level
        floor = level * np.abs(clean).mean() * 0.1
        np.testing.assert_allclose(stored_sigma,
                                   np.maximum(level * np.abs(clean), floor),
                                   rtol=1e-12)


class TestPipelineOutputs:
    def test_summaries_have_finite_error_and_hash(self, run_dir):
        _, _, out = run_dir
        for stage in ("krnet", "mcmc"):
            summary = read_json(out / stage / "summary.json")
            assert np.isfinite(summary["relative_error"])
            assert len(summary["config_hash"]) == 64
        assert read_json(out / "mcmc" / "summary.json")["acceptance_rate"] > 0

    def test_mcmc_acceptance_definition(self, run_dir):
        _, _, out = run_dir
        summary = read_json(out / "mcmc" / "summary.json")
        assert summary["total_steps"] == 300
        assert 0.0 < summary["acceptance_rate"] <= 1.0
        # every step's proposal is evaluated once, plus the initial state and
        # the prefetched proposals the chain did not reach
        assert 301 <= summary["likelihood_evaluations"] <= 1 + PREFETCH_WIDTH * 300

    def test_report_matches_summaries(self, run_dir, tmp_path):
        _, _, out = run_dir
        report_path = tmp_path / "report.csv"
        assert main(["report", str(out / "krnet"), str(out / "mcmc"),
                     "--out", str(report_path)]) == 0
        lines = report_path.read_text().strip().splitlines()
        assert lines[0] == "method,d,relative_error,wall_time,acceptance_rate"
        assert len(lines) == 3
        krnet_row = lines[1].split(",")
        mcmc_row = lines[2].split(",")
        assert krnet_row[0] == "krnet" and mcmc_row[0] == "mcmc"
        assert float(krnet_row[2]) == read_json(out / "krnet" / "summary.json")["relative_error"]
        assert float(mcmc_row[2]) == read_json(out / "mcmc" / "summary.json")["relative_error"]
        assert krnet_row[4] == ""
        assert float(mcmc_row[4]) == read_json(out / "mcmc" / "summary.json")["acceptance_rate"]


class TestDependencyGates:
    def test_missing_dataset_blocks_training(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        save_config(cfg_path, tiny_config())
        out = tmp_path / "empty"
        out.mkdir()
        assert main(["train-vae", "--config", str(cfg_path), "--out", str(out)]) == 1

    def test_missing_decoder_blocks_inference(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        save_config(cfg_path, tiny_config())
        out = tmp_path / "partial"
        assert main(["generate-data", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["infer-krnet", "--config", str(cfg_path), "--out", str(out)]) == 1

    def test_config_hash_mismatch_aborts(self, run_dir, tmp_path):
        _, _, out = run_dir
        changed = tiny_config()
        changed.kle.variance = 0.7
        cfg_path = tmp_path / "changed.ini"
        save_config(cfg_path, changed)
        assert main(["train-vae", "--config", str(cfg_path), "--out", str(out)]) == 1

    # ``after`` names the last container entry kept ("" keeps the header
    # alone); None cuts the file in half
    @pytest.mark.parametrize("artifact,stage,after", [
        *[pytest.param(artifact, stage, None, id=f"{artifact}-{stage}") for artifact, stage in [
            ("dataset.bin", "train-vae"), ("vae.bin", "infer-mcmc"),
            ("observations.csv", "infer-mcmc"), ("truth_field.csv", "infer-mcmc"),
            ("vae.json", "infer-mcmc"), ("surrogate.json", "infer-mcmc"),
            ("generate_data_meta.json", "train-vae")]],
        *[pytest.param(artifact, stage, after, id=f"{artifact}-after-{after or 'header'}-{stage}")
          for artifact, after, stage in [
              ("vae.bin", "enc.W0", "infer-mcmc"), ("vae.bin", "enc.W0", "infer-krnet"),
              ("surrogate.bin", "b0", "infer-mcmc"), ("dataset.bin", "", "train-surrogate")]]])
    def test_truncated_artifact_exits_1_naming_it(self, run_dir, tmp_path, capsys,
                                                  artifact, stage, after):
        _, cfg_path, out = run_dir
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        data = (copy / artifact).read_bytes()
        cut = len(data) // 2 if after is None else _entry_ends(copy / artifact)[after]
        (copy / artifact).write_bytes(data[:cut])
        assert main([stage, "--config", str(cfg_path), "--out", str(copy)]) == 1
        reason = {".bin": "truncated",
                  ".csv": r"line \d+ has \d+ fields, expected \d+",
                  ".json": r".* line \d+ column \d+"}[Path(artifact).suffix]
        assert re.search(rf"{re.escape(artifact)}: {reason}", capsys.readouterr().err)

    # whole containers at odds with their sidecars, or holding a name twice
    @pytest.mark.parametrize("artifact,edit,reason", [
        ("vae.bin", lambda run: shutil.copy(run / "surrogate.bin", run / "vae.bin"),
         r"entry 'enc\.W0' is missing here, but the layer sizes in .*vae\.json give \(64, 24\)"),
        ("vae.bin", lambda run: _edit_json(run / "vae.json", latent_dim=3),
         r"entry 'enc\.W1' is \(24, 8\) here, but the layer sizes in .*vae\.json give \(24, 6\)"),
        ("surrogate.bin", lambda run: _edit_json(run / "surrogate.json", hidden=[99]),
         r"entry 'W0' is \(64, 32\) here, but the layer sizes in .*surrogate\.json "
         r"give \(64, 99\)"),
        ("surrogate.bin", lambda run: _rename_entry(run / "surrogate.bin", "W1", "W0"),
         r"entry 'W0' appears twice")],
        ids=["surrogate.bin-as-vae.bin", "vae.json-latent_dim-3", "surrogate.json-hidden-99",
             "surrogate.bin-repeated-entry"])
    def test_container_at_odds_with_its_sidecar_exits_1_naming_it(self, run_dir, tmp_path,
                                                                  capsys, artifact, edit, reason):
        _, cfg_path, out = run_dir
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        edit(copy)
        assert main(["infer-mcmc", "--config", str(cfg_path), "--out", str(copy)]) == 1
        assert re.fullmatch(rf"error: {re.escape(str(copy / artifact))}: {reason}\n",
                            capsys.readouterr().err)

    @pytest.mark.parametrize("artifact,key,value,expected", [
        ("surrogate.json", "hidden", 99, "a list of ints"),
        ("vae.json", "offset", "x", "a finite number"),
        ("vae.json", "latent_dim", True, "an int"),
        ("vae.json", "scale", float("nan"), "a finite number")],
        ids=["surrogate.json-hidden-99", "vae.json-offset-x", "vae.json-latent_dim-true",
             "vae.json-scale-NaN"])
    def test_sidecar_value_of_the_wrong_type_exits_1_naming_it(self, run_dir, tmp_path, capsys,
                                                               artifact, key, value, expected):
        _, cfg_path, out = run_dir
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        _edit_json(copy / artifact, **{key: value})
        assert main(["infer-mcmc", "--config", str(cfg_path), "--out", str(copy)]) == 1
        assert re.fullmatch(rf"error: {re.escape(str(copy / artifact))}: '{key}' is "
                            rf"{re.escape(repr(value))}, expected {expected}\n",
                            capsys.readouterr().err)

    @pytest.mark.parametrize("artifact,key,stage", [
        ("generate_data_meta.json", "config_hash", "train-vae"),
        ("vae.json", "height", "infer-mcmc"), ("vae.json", "config_hash", "infer-mcmc"),
        ("surrogate.json", "hidden", "infer-mcmc")])
    def test_sidecar_missing_a_key_exits_1_naming_it(self, run_dir, tmp_path, capsys,
                                                     artifact, key, stage):
        _, cfg_path, out = run_dir
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        meta = read_json(copy / artifact)
        del meta[key]
        write_json(copy / artifact, meta)
        assert main([stage, "--config", str(cfg_path), "--out", str(copy)]) == 1
        assert f"{artifact}: missing key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("artifact,key", [
        ("mcmc/summary.json", "method"), ("mcmc/infer_mcmc_timing.json", "wall_time_seconds")])
    def test_report_input_missing_a_key_exits_1_naming_it(self, run_dir, tmp_path, capsys,
                                                          artifact, key):
        _, _, out = run_dir
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        payload = read_json(copy / artifact)
        del payload[key]
        write_json(copy / artifact, payload)
        assert main(["report", str(copy / "krnet"), str(copy / "mcmc")]) == 1
        assert f"{copy / artifact}: missing key '{key}'" in capsys.readouterr().err

    def test_sidecar_that_is_not_an_object_exits_1_naming_it(self, run_dir, tmp_path, capsys):
        _, cfg_path, out = run_dir
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        (copy / "vae.json").write_text("3\n")
        assert main(["infer-mcmc", "--config", str(cfg_path), "--out", str(copy)]) == 1
        assert "vae.json: missing key 'config_hash'" in capsys.readouterr().err

    # a cut at a line end leaves a well-formed CSV with fewer rows
    @pytest.mark.parametrize("artifact,reason", [
        ("observations.csv", r"4 observations, expected 9"),
        ("truth_field.csv", r"field shape \(4, 8\), expected \(8, 8\)")],
        ids=["observations.csv", "truth_field.csv"])
    def test_csv_cut_at_line_end_exits_1_naming_it(self, run_dir, tmp_path, capsys,
                                                   artifact, reason):
        _, cfg_path, out = run_dir
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        lines = (copy / artifact).read_text().splitlines(keepends=True)
        (copy / artifact).write_text("".join(lines[:len(lines) // 2]))
        assert main(["infer-mcmc", "--config", str(cfg_path), "--out", str(copy)]) == 1
        assert re.search(rf"{re.escape(artifact)}: {reason}", capsys.readouterr().err)

    # one entry of a well-formed CSV replaced: (file, line, column, new entry)
    @pytest.mark.parametrize("stage", ["infer-krnet", "infer-mcmc"])
    @pytest.mark.parametrize("artifact,line,column,entry,reason", [
        ("observations.csv", 2, 2, "nan", "line 2: non-finite value 'nan'"),
        ("observations.csv", 5, 3, "inf", "line 5: non-finite value 'inf'"),
        ("observations.csv", 3, 3, "0.0", "noise standard deviations must be positive"),
        ("observations.csv", 2, 0, "1.5", "sensor locations must lie in the closed unit square"),
        ("truth_field.csv", 4, 6, "nan", "line 4: non-finite value 'nan'")],
        ids=["nan-value", "inf-sigma", "zero-sigma", "outside-location", "nan-truth"])
    def test_bad_csv_entry_exits_1_naming_it(self, run_dir, tmp_path, capsys, stage,
                                             artifact, line, column, entry, reason):
        _, cfg_path, out = run_dir
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        rows = [row.split(",") for row in (copy / artifact).read_text().splitlines()]
        rows[line - 1][column] = entry
        (copy / artifact).write_text("".join(",".join(row) + "\n" for row in rows))
        assert main([stage, "--config", str(cfg_path), "--out", str(copy)]) == 1
        assert f"{artifact}: {reason}" in capsys.readouterr().err

    def test_training_divergence_exits_2(self, run_dir, tmp_path, capsys, monkeypatch):
        _, cfg_path, out = run_dir
        copy = tmp_path / "run"
        shutil.copytree(out, copy)

        def diverge(program, params, rows=None, flat=None):
            raise ad.NonFiniteError("injected")

        monkeypatch.setattr(ad, "evaluate_with_gradients", diverge)
        assert main(["train-vae", "--config", str(cfg_path), "--out", str(copy)]) == 2
        assert "numerical failure: VAE training diverged at epoch 0" in capsys.readouterr().err

    def test_bad_config_rejected(self, tmp_path):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text("[grid]\nheight = 8\n")
        assert main(["generate-data", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x")]) == 1

    def test_removed_decoder_sampling_key_stops_the_first_stage(self, tmp_path, capsys):
        cfg_path = tmp_path / "old.ini"
        save_config(cfg_path, tiny_config())
        text = cfg_path.read_text().replace("[inference]\n",
                                            "[inference]\ndecoder_sampling = mean\n")
        cfg_path.write_text(text)
        assert main(["generate-data", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x")]) == 1
        assert "unknown keys in [inference]: ['decoder_sampling']" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key", ["target_acceptance_low", "target_acceptance_high"])
    def test_removed_acceptance_band_key_stops_the_first_stage(self, tmp_path, capsys, key):
        cfg_path = tmp_path / "old.ini"
        save_config(cfg_path, tiny_config())
        text = cfg_path.read_text().replace("[mcmc]\n", f"[mcmc]\n{key} = 0.2\n")
        cfg_path.write_text(text)
        assert main(["generate-data", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x")]) == 1
        assert f"unknown keys in [mcmc]: ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("section,key,value", [("mcmc", "retained", 0),
                                                   ("flow", "n_groups", 3),
                                                   ("mcmc", "step_size", -0.05)])
    def test_range_error_stops_the_first_stage(self, tmp_path, capsys, section, key, value):
        cfg = tiny_config()
        setattr(getattr(cfg, section), key, value)
        cfg_path = tmp_path / "range.ini"
        save_config(cfg_path, cfg)
        assert main(["generate-data", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x")]) == 1
        assert f"bad value for {section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestDeterminism:
    def test_regenerated_outputs_byte_identical(self, run_dir, tmp_path):
        base, cfg_path, out = run_dir
        out2 = tmp_path / "rerun"
        for stage in ("generate-data", "train-vae", "train-surrogate",
                      "infer-krnet", "infer-mcmc"):
            assert main([stage, "--config", str(cfg_path), "--out", str(out2)]) == 0

        def artifacts(run):
            return {p.relative_to(run).as_posix(): p.read_bytes() for p in run.rglob("*")
                    if p.is_file() and not p.name.endswith("_timing.json")}

        first, second = artifacts(out), artifacts(out2)
        assert sorted(first) == sorted(second)
        assert "krnet/loss_curve.csv" in first
        for rel, data in first.items():
            assert data == second[rel], f"{rel} differs between reruns"

    def test_seed_override_changes_outputs(self, run_dir, tmp_path):
        _, cfg_path, out = run_dir
        out2 = tmp_path / "override"
        assert main(["generate-data", "--config", str(cfg_path), "--out", str(out2),
                     "--seed-override", "99"]) == 0
        assert (out / "dataset.bin").read_bytes() != (out2 / "dataset.bin").read_bytes()
        # and the recorded hash reflects the overridden seeds
        h1 = read_json(out / "generate_data_meta.json")["config_hash"]
        h2 = read_json(out2 / "generate_data_meta.json")["config_hash"]
        assert h1 != h2
