import dataclasses
import math
import os

import numpy as np
import pytest

from dispflow.experiment import (
    ConfigError,
    ExperimentConfig,
    _echo_config,
    load_config,
    parse_angle,
    run_experiment,
)
from dispflow.fileio import read_csv
from dispflow.varsolve import SolverError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SHIPPED = ["fig1", "fig2", "fig3", "fig4", "fig5", "fig5_discrete", "fig6"]


class TestParseAngle:
    def test_plain_float(self):
        assert parse_angle("0.5") == 0.5

    def test_pi_forms(self):
        assert parse_angle("pi") == pytest.approx(math.pi)
        assert parse_angle("pi/90") == pytest.approx(math.pi / 90)
        assert parse_angle("2*pi/45") == pytest.approx(2 * math.pi / 45)

    def test_rejects_garbage(self):
        for bad in ("", "pie", "pi/0", "1/2/3", "import os"):
            with pytest.raises(ConfigError):
                parse_angle(bad)


class TestLoadConfig:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_named_configs_load(self, name):
        cfg = load_config(os.path.join(CONFIG_DIR, f"{name}.cfg"))
        assert cfg.name == name

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_bad_correction(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[experiment]\nname = x\ninput = phantom\ncorrection = magic\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_bad_input_kind(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[experiment]\nname = x\ninput = video\ncorrection = none\n")
        with pytest.raises(ConfigError):
            load_config(p)


    @pytest.mark.parametrize("a,noise", [("-0.1", "0"), ("0.1", "-0.5")])
    def test_negative_bound_or_noise(self, tmp_path, a, noise):
        # read as "no jitter" or "no noise" these would run the clean pipeline
        p = tmp_path / "neg.cfg"
        p.write_text(f"[experiment]\nname = x\n[tomo]\na = {a}\nnoise = {noise}\n")
        with pytest.raises(ConfigError, match="must be non-negative"):
            load_config(p)
        with pytest.raises(ConfigError, match="must be non-negative"):
            ExperimentConfig(a=float(a), noise=float(noise))

    def test_non_finite_solver_setting(self, tmp_path):
        # was accepted, then failed inside scipy with "array must not contain infs or NaNs"
        p = tmp_path / "nan.cfg"
        p.write_text("[experiment]\nname = x\ncorrection = varsolve\n[varsolve]\nalpha = nan\n")
        with pytest.raises(SolverError, match="^alpha must be finite, got nan$"):
            load_config(p)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_echo_loads_back_to_the_same_experiment(self, tmp_path, name):
        # a run is reproducible from its output directory: only outdir differs
        cfg = load_config(os.path.join(CONFIG_DIR, f"{name}.cfg"))
        _echo_config(cfg, str(tmp_path))
        echo = load_config(tmp_path / "config.echo.cfg")
        assert dataclasses.replace(echo, outdir=cfg.outdir) == cfg


def small_tomo_cfg(tmp_path, correction="none", extra=""):
    p = tmp_path / "small.cfg"
    p.write_text(
        "[experiment]\n"
        "name = small\n"
        "input = phantom\n"
        f"correction = {correction}\n"
        f"outdir = {tmp_path / 'out'}\n"
        "[tomo]\n"
        "n = 32\n"
        "n_out = 32\n"
        "angle_step = pi/18\n"
        "a = pi/18\n"
        "seed = 3\n" + extra
    )
    return load_config(p)


class TestRunExperiment:
    def test_tomo_outputs_and_determinism(self, tmp_path):
        cfg = small_tomo_cfg(tmp_path)
        rep1 = run_experiment(cfg)
        outdir = str(tmp_path / "out")
        for fname in (
            "config.echo.cfg",
            "phantom.pgm",
            "sinogram.csv",
            "recon.pgm",
            "displacement.csv",
            "metrics.csv",
        ):
            assert os.path.exists(os.path.join(outdir, fname)), fname
        rep2 = run_experiment(cfg)
        assert rep1.rmse == rep2.rmse

    def test_metrics_csv_format(self, tmp_path):
        run_experiment(small_tomo_cfg(tmp_path))
        lines = (tmp_path / "out" / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "metric,value"
        assert any(line.startswith("rmse,") for line in lines)

    def test_discrete_correction_writes_shifts(self, tmp_path):
        cfg = small_tomo_cfg(tmp_path, correction="assign", extra="[discrete]\nM = 4\n")
        rep = run_experiment(cfg)
        shifts = (tmp_path / "out" / "shifts.csv").read_text().strip().split("\n")
        assert shifts[0] == "index,shift"
        assert os.path.exists(tmp_path / "out" / "sinogram_corrected.csv")
        assert "rmse_uncorrected" in (rep.extras or {})

    def test_strip_experiment(self, tmp_path):
        p = tmp_path / "strip.cfg"
        p.write_text(
            "[experiment]\n"
            "name = strip\n"
            "input = strip\n"
            "correction = flow\n"
            f"outdir = {tmp_path / 'out'}\n"
            "[image]\n"
            "image_n = 32\n"
            "strip_width = 5\n"
            "amplitude = 255\n"
            "dx1 = 0.1\n"
            "dx2 = 0.1\n"
            "[flow]\n"
            "axis = X1\n"
            "k = 2\n"
            "p = 2\n"
            "q = 2\n"
            "t_end = 1e-7\n"
        )
        rep = run_experiment(load_config(p))
        ex = rep.extras or {}
        assert "fwhm_before" in ex and "fwhm_after" in ex
        assert np.isfinite(ex["fwhm_after"])

    def test_outdir_override(self, tmp_path):
        cfg = small_tomo_cfg(tmp_path)
        alt = tmp_path / "alt"
        run_experiment(cfg, outdir=str(alt))
        assert os.path.exists(alt / "metrics.csv")

    def test_sinogram_matches_direct_radon(self, tmp_path):
        from dispflow.tomo import radon_perturbed, sample_uniform_displacement, shepp_logan

        cfg = small_tomo_cfg(tmp_path)
        run_experiment(cfg)
        written = read_csv(tmp_path / "out" / "sinogram.csv")
        ph = shepp_logan(32, variant=cfg.variant)
        angles = np.arange(written.shape[0]) * (math.pi / 18)
        pert = sample_uniform_displacement(angles, math.pi / 18, seed=3)
        sino = radon_perturbed(ph, angles, None, pert)
        assert np.allclose(written.values, sino.field.values)

    def test_displacement_csv_parses_to_the_drawn_values(self, tmp_path):
        from dispflow.tomo import sample_uniform_displacement

        run_experiment(small_tomo_cfg(tmp_path))
        rows = np.loadtxt(tmp_path / "out" / "displacement.csv", delimiter=",", skiprows=1)
        drawn = sample_uniform_displacement(np.arange(18), math.pi / 18, seed=3).d
        assert np.array_equal(rows[:, 0], np.arange(18))
        assert np.array_equal(rows[:, 1], drawn)


def _read_metrics(path):
    with open(path) as fh:
        header, *lines = fh.read().strip().split("\n")
    assert header == "metric,value"
    return {key: float(value) for key, value in (line.split(",") for line in lines)}


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_config_matches_golden_metrics(tmp_path, name):
    """Every shipped config reproduces its recorded metrics.csv."""
    run_experiment(load_config(os.path.join(CONFIG_DIR, f"{name}.cfg")), str(tmp_path))
    got = _read_metrics(tmp_path / "metrics.csv")
    want = _read_metrics(os.path.join(GOLDEN_DIR, f"{name}.csv"))
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-7, abs=0.0), key
