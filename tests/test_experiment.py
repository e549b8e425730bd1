import dataclasses
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from dispflow.experiment import (
    _SCHEMA,
    ConfigError,
    ExperimentConfig,
    _echo_config,
    jittered_sinogram,
    load_config,
    parse_angle,
    run_experiment,
)
from dispflow.fileio import read_csv
from dispflow.flows import FlowParams
from dispflow.grid import Axis
from dispflow.varsolve import EnergyParams, SolverError

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


    @pytest.mark.parametrize("a,noise", [("-0.1", "0"), ("0.1", "-0.5"), ("nan", "0"),
                                         ("0", "nan"), ("inf", "0"), ("0", "inf")])
    def test_negative_bound_or_noise(self, tmp_path, a, noise):
        # read as "no jitter" or "no noise" these would run the clean pipeline;
        # inf fails mid-run, after the echo and the phantom are written
        p = tmp_path / "neg.cfg"
        p.write_text(f"[experiment]\nname = x\n[tomo]\na = {a}\nnoise = {noise}\n")
        with pytest.raises(ConfigError, match="must be non-negative"):
            load_config(p)
        with pytest.raises(ConfigError, match="must be non-negative"):
            ExperimentConfig(a=float(a), noise=float(noise))

    @pytest.mark.parametrize("text,field,value,msg", [
        ("[flow]\nt_end = nan\n", "t_end", math.nan, "t_end must be non-negative and finite, got nan"),
        ("[flow]\nt_end = inf\n", "t_end", math.inf, "t_end must be non-negative and finite, got inf"),
        ("[flow]\nt_end = -1\n", "t_end", -1.0, "t_end must be non-negative and finite, got -1.0"),
        ("[varsolve]\nm_max = 0\n", "m_max", 0, "m_max must be at least 1, got 0"),
    ])
    def test_stage_limit_out_of_range(self, tmp_path, text, field, value, msg):
        # each loaded, then failed mid-run after config.echo.cfg and the input
        # images were written
        p = tmp_path / "limit.cfg"
        p.write_text("[experiment]\nname = x\n" + text)
        with pytest.raises(ConfigError, match=f"^{re.escape(msg)}$"):
            load_config(p)
        with pytest.raises(ConfigError, match=f"^{re.escape(msg)}$"):
            ExperimentConfig(**{field: value})
        assert ExperimentConfig(t_end=0.0, m_max=1).m_max == 1

    @pytest.mark.parametrize("text,msg", [
        # each failed mid-run, after config.echo.cfg and other files were written
        ("[tomo]\nfilter = foo\n", "unknown filter 'foo'"),
        ("[tomo]\nn_out = 8\n", "n_out must be at least 16, got 8"),
        ("[tomo]\nn = 8\n", "n must be at least 16, got 8"),
        ("[tomo]\nvariant = foo\n", "unknown phantom variant 'foo'"),
        ("correction = assign\n[discrete]\nm = 0\n", "m must be at least 1, got 0"),
        ("correction = jitter\n[discrete]\nm = -1\n", "m must be at least 0, got -1"),
        ("[image]\ndx1 = nan\n", "dx1 must be non-negative and finite, got nan"),
        # each ran as another setting: k = 2, a spacing of 1/n, a flow that
        # moves nothing, or a strip whose FWHM reads nan
        ("[discrete]\nkorder = 3\n", "korder must be 1 or 2, got 3"),
        ("[image]\ndx1 = -0.1\n", "dx1 must be non-negative and finite, got -0.1"),
        ("[image]\ndx2 = inf\n", "dx2 must be non-negative and finite, got inf"),
        ("input = strip\n[image]\nstrip_width = 100\n",
         "strip_width must lie in [1, n - 2] = [1, 62], got 100"),
        ("input = strip\n[image]\nn = 32\nstrip_width = 0\n",
         "strip_width must lie in [1, n - 2] = [1, 30], got 0"),
    ])
    def test_setting_out_of_range(self, tmp_path, text, msg):
        p = tmp_path / "range.cfg"
        p.write_text("[experiment]\nname = x\n" + text)
        with pytest.raises(ConfigError, match=f"^{re.escape(msg)}$"):
            load_config(p)

    def test_setting_range_ends_are_accepted(self):
        cfg = ExperimentConfig(input="strip", image_n=32, strip_width=30, n=16, korder=2,
                               correction="jitter", M=0, dx1=0.0, dx2=1e300)
        assert (cfg.n_out, cfg.filter, cfg.variant) == (128, "ram-lak", "high-contrast")
        assert ExperimentConfig(input="strip", strip_width=1, correction="assign", M=1).M == 1
        assert ExperimentConfig(input="interface", strip_width=100).strip_width == 100  # unused

    @pytest.mark.parametrize("step", ["0", "nan", "-0.1", "4", "inf", "5e-324", "1e-300"])
    def test_angle_step_without_two_angles(self, tmp_path, step):
        # each failed only inside the run (ZeroDivisionError, NaN to int, or in
        # radon / fbp), after config.echo.cfg and phantom.pgm were written;
        # 5e-324 (pi / step overflows) raised OverflowError from the check, and
        # 1e-300 (too many angles for numpy) "Maximum allowed size exceeded"
        msg = f"angle_step must give at least two angles in [0, pi), got {float(step)}"
        p = tmp_path / "step.cfg"
        p.write_text(f"[tomo]\nangle_step = {step}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(msg)}$"):
            load_config(p)
        with pytest.raises(ConfigError, match=f"^{re.escape(msg)}$"):
            ExperimentConfig(angle_step=float(step))
        assert ExperimentConfig(angle_step=2.0).angle_step == 2.0  # round(pi / 2) == 2

    def test_angle_step_check_builds_no_grid(self):
        # the check built the 31-million-angle grid: 502 MB traced, 0.44 s
        tracemalloc.start()
        try:
            assert ExperimentConfig(angle_step=1e-7).angle_step == 1e-7
            assert tracemalloc.get_traced_memory()[1] < 1_000_000
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("text,msg", [
        ("[flow]\nt-end = 5\n", "unknown key 't-end' in [flow]"),
        ("[flow]\nkk = 2\n", "unknown key 'kk' in [flow]"),
        ("[flwo]\nt_end = 5\n", "unknown section [flwo]"),
        ("[Flow]\nt_end = 5\n", "unknown section [Flow]"),
        ("[image]\nimage_n = 32\n", "unknown key 'image_n' in [image]"),
        ("[tomo]\nname = y\n", "unknown key 'name' in [tomo]"),
        ("[tomo]\ndt_max = 1\n", "unknown key 'dt_max' in [tomo]"),
    ])
    def test_unknown_section_or_key(self, tmp_path, text, msg):
        # each was ignored, so the run used the default in its place
        p = tmp_path / "unknown.cfg"
        p.write_text("[experiment]\nname = x\n" + text)
        with pytest.raises(ConfigError, match=f"^{re.escape(msg)}$"):
            load_config(p)

    @pytest.mark.parametrize("text,msg", [
        ("[flow]\nk = 1.5\n", "[flow] k: invalid literal for int() with base 10: '1.5'"),
        ("[tomo]\ncompensate = maybe\n", "[tomo] compensate: not a boolean: 'maybe'"),
        ("[varsolve]\naxis = X3\n", "[varsolve] axis: unknown axis 'X3'"),
        ("[tomo]\na = pie\n", "[tomo] a: cannot parse angle 'pie'"),
        ("[image]\namplitude = bright\n",
         "[image] amplitude: could not convert string to float: 'bright'"),
    ])
    def test_malformed_value_names_section_and_key(self, tmp_path, text, msg):
        p = tmp_path / "malformed.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError, match=f"^{re.escape(msg)}$"):
            load_config(p)

    @pytest.mark.parametrize("text", ["n = 32\n", "[tomo]\nn = 32\n[tomo]\nn = 64\n",
                                      "[tomo]\nn = 32\nn = 64\n"])
    def test_malformed_file_is_one_line(self, tmp_path, text):
        p = tmp_path / "malformed.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_config(p)
        assert "\n" not in str(info.value)

    def test_unset_keys(self, tmp_path):
        # name is the file's stem, n_out the file's n, everything else the default
        p = tmp_path / "bare.cfg"
        p.write_text("[tomo]\nn = 32\n")
        assert load_config(p) == ExperimentConfig(name="bare", n=32, n_out=32)
        p.write_text("[image]\nn = 32\n")
        assert load_config(p) == ExperimentConfig(name="bare", image_n=32)

    def test_every_key(self, tmp_path):
        p = tmp_path / "every.cfg"
        p.write_text(EVERY_KEY)
        cfg = load_config(p)
        assert cfg == ExperimentConfig(
            name="every", input="strip", correction="varsolve", outdir="elsewhere",
            n=64, n_out=64, variant="standard", angle_step=math.pi / 45, a=math.pi / 30,
            noise=0.02, seed=11, filter="shepp-logan-filter", compensate=True,
            image_n=48, strip_width=7, amplitude=2.5, dx1=0.5, dx2=0.25,
            flow=FlowParams(axis=Axis.X2, k=2, p=1, q=1, beta=1e-4, eps=0.01, cfl=0.9),
            t_end=2e-3,
            energy=EnergyParams(axis=Axis.X2, k=2, p=1, q=1, alpha=0.5, eps=0.01, beta=1e-5),
            m_max=20, M=7, korder=2,
        )
        # the file above leaves no setting at its default, so a key the loader
        # or the echo dropped would show here
        default = ExperimentConfig()
        for got, base in ((cfg, default), (cfg.flow, default.flow), (cfg.energy, default.energy)):
            for f in dataclasses.fields(got):
                assert getattr(got, f.name) != getattr(base, f.name), f.name
        _echo_config(cfg, str(tmp_path))
        echo = load_config(tmp_path / "config.echo.cfg")
        assert dataclasses.replace(echo, outdir=cfg.outdir) == cfg

    def test_readme_table_lists_the_schema(self):
        # README's "Config files" table: one row per key, in file order
        with open(os.path.join(CONFIG_DIR, "..", "README.md")) as fh:
            text = fh.read().split("### Config files", 1)[1].split("\n#", 1)[0]
        rows, section = [], None
        for line in text.splitlines():
            cells = [c.strip().strip("`") for c in line.split("|")[1:-1]]
            if len(cells) == 4 and cells[1] not in ("key", "---"):
                section = cells[0].strip("[]") or section
                rows.append((section, cells[1], cells[2]))
        assert rows == [(section, key, f"{owner}.{attr}" if owner else attr)
                        for section, keys in _SCHEMA.items()
                        for key, (owner, attr, _, _) in keys.items()]

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

    @pytest.mark.parametrize("name", SHIPPED)
    def test_echo_of_the_echo_is_byte_equal(self, tmp_path, name):
        _echo_config(load_config(os.path.join(CONFIG_DIR, f"{name}.cfg")), str(tmp_path))
        first = (tmp_path / "config.echo.cfg").read_bytes()
        again = tmp_path / "again"
        again.mkdir()
        _echo_config(load_config(tmp_path / "config.echo.cfg"), str(again))
        assert (again / "config.echo.cfg").read_bytes() == first


EVERY_KEY = """\
[experiment]
name = every
input = strip
correction = varsolve
outdir = elsewhere

[tomo]
n = 64
variant = standard
angle_step = pi/45
a = pi/30
noise = 0.02
seed = 11
filter = shepp-logan-filter
compensate = yes

[image]
n = 48
strip_width = 7
amplitude = 2.5
dx1 = 0.5
dx2 = 0.25

[flow]
axis = X2
k = 2
p = 1
q = 1
beta = 1e-4
eps = 0.01
cfl = 0.9
t_end = 2e-3

[varsolve]
axis = offset
k = 2
p = 1
q = 1
alpha = 0.5
eps = 0.01
beta = 1e-5
m_max = 20

[discrete]
M = 7
korder = 2
"""


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
            "n = 32\n"
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

    @pytest.mark.parametrize("noise", [-0.5, math.nan, math.inf])
    def test_jittered_sinogram_rejects_noise(self, noise):
        # NaN dropped the noise; inf failed as "field contains non-finite values"
        from dispflow.tomo import TomoError, angle_grid, shepp_logan

        msg = f"noise must be non-negative and finite, got {noise}"
        with pytest.raises(TomoError, match=f"^{re.escape(msg)}$"):
            jittered_sinogram(shepp_logan(16), angle_grid(math.pi / 8), 0.1, noise, 7)

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
