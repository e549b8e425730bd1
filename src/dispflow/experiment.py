"""Experiment pipelines: named configs drive phantom -> projection ->
correction -> reconstruction -> metrics, with all intermediates on disk.

Config files are plain line-based ``key = value`` with ``[section]``
headers (parsed by configparser).  Sections: [experiment], [tomo],
[image], [flow], [varsolve], [discrete].  Every run writes a
``config.echo.cfg`` copy and a ``metrics.csv`` next to the field artifacts
so a run is reproducible from its output directory alone.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .discrete import block_assign_columns, jitter_correct_rows
from .fileio import write_csv, write_image
from .flows import FlowParams, evolve
from .grid import Axis, ScalarField
from .metrics import MetricReport, interface_variance, metrics, strip_fwhm
from .tomo import (
    AngularPerturbation,
    Sinogram,
    TomoError,
    fbp,
    radon,
    radon_perturbed,
    sample_uniform_displacement,
    shepp_logan,
)
from .varsolve import EnergyParams, iterate


class ConfigError(ValueError):
    pass


def parse_angle(text: str) -> float:
    """Parse an angle given as a float or a pi expression such as
    ``pi``, ``pi/90``, ``2*pi/45`` or ``0.1``."""
    s = str(text).strip().lower().replace(" ", "")
    if not s:
        raise ConfigError("empty angle")
    try:
        return float(s)
    except ValueError:
        pass
    num, _, den = s.partition("/")
    try:
        if num == "pi":
            value = math.pi
        elif num.endswith("*pi"):
            value = float(num[:-3]) * math.pi
        elif num.startswith("pi*"):
            value = math.pi * float(num[3:])
        else:
            value = float(num)
        if den:
            d = float(den)
            if d == 0.0:
                raise ConfigError(f"zero denominator in angle {text!r}")
            value /= d
    except ValueError as exc:
        raise ConfigError(f"cannot parse angle {text!r}") from exc
    return value


_STAGES = ("none", "flow", "varsolve", "jitter", "assign")
_INPUTS = ("phantom", "strip", "interface")


@dataclass
class ExperimentConfig:
    """Flat bag of pipeline settings; see configs/ for examples."""

    name: str = "experiment"
    input: str = "phantom"  # phantom | strip | interface
    correction: str = "none"  # none | flow | varsolve | jitter | assign
    outdir: str = "out"
    # tomography settings
    n: int = 128
    n_out: int = 128
    variant: str = "high-contrast"
    angle_step: float = math.pi / 90
    a: float = 0.0
    noise: float = 0.0  # Gaussian sigma as a fraction of the sinogram max
    seed: int = 7
    filter: str = "ram-lak"
    compensate: bool = False  # backproject at theta + a/2 (known-mean shift)
    # synthetic-image settings (strip / interface inputs)
    image_n: int = 64
    strip_width: int = 5
    amplitude: float = 255.0
    dx1: float = 0.1
    dx2: float = 0.1
    # flow settings
    flow: FlowParams = field(
        default_factory=lambda: FlowParams(axis=Axis.X1, k=1, p=2, q=2)
    )
    t_end: float = 1e-3
    # varsolve settings
    energy: EnergyParams = field(
        default_factory=lambda: EnergyParams(axis=Axis.X1, k=1, p=2, q=2)
    )
    m_max: int = 50
    # discrete settings
    M: int = 5
    korder: int = 1

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.correction not in _STAGES:
            raise ConfigError(f"unknown correction stage {self.correction!r}")
        if self.input not in _INPUTS:
            raise ConfigError(f"unknown input kind {self.input!r}")
        for key in ("a", "noise"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be non-negative, got {getattr(self, key)}")


def _axis(text: str) -> Axis:
    t = str(text).strip().upper()
    if t in ("X1", "0", "THETA"):
        return Axis.X1
    if t in ("X2", "1", "OFFSET"):
        return Axis.X2
    raise ConfigError(f"unknown axis {text!r}")


def load_config(path) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config {path!r}")
    cfg = ExperimentConfig()
    exp = cp["experiment"] if cp.has_section("experiment") else {}
    cfg.name = exp.get("name", os.path.splitext(os.path.basename(path))[0])
    cfg.input = exp.get("input", cfg.input)
    cfg.correction = exp.get("correction", cfg.correction)
    cfg.outdir = exp.get("outdir", cfg.outdir)
    if cp.has_section("tomo"):
        t = cp["tomo"]
        cfg.n = t.getint("n", cfg.n)
        cfg.n_out = t.getint("n_out", cfg.n)
        cfg.variant = t.get("variant", cfg.variant)
        cfg.angle_step = parse_angle(t.get("angle_step", str(cfg.angle_step)))
        cfg.a = parse_angle(t.get("a", str(cfg.a)))
        cfg.noise = t.getfloat("noise", cfg.noise)
        cfg.seed = t.getint("seed", cfg.seed)
        cfg.filter = t.get("filter", cfg.filter)
        cfg.compensate = t.getboolean("compensate", cfg.compensate)
    if cp.has_section("image"):
        im = cp["image"]
        cfg.image_n = im.getint("n", cfg.image_n)
        cfg.strip_width = im.getint("strip_width", cfg.strip_width)
        cfg.amplitude = im.getfloat("amplitude", cfg.amplitude)
        cfg.dx1 = im.getfloat("dx1", cfg.dx1)
        cfg.dx2 = im.getfloat("dx2", cfg.dx2)
    if cp.has_section("flow"):
        fl = cp["flow"]
        cfg.flow = FlowParams(
            axis=_axis(fl.get("axis", "X1")),
            k=fl.getint("k", 1),
            p=fl.getint("p", 2),
            q=fl.getint("q", 2),
            beta=fl.getfloat("beta", 1e-6),
            eps=fl.getfloat("eps", 0.0),
            cfl=fl.getfloat("cfl", 0.5),
        )
        cfg.t_end = fl.getfloat("t_end", cfg.t_end)
    if cp.has_section("varsolve"):
        vs = cp["varsolve"]
        cfg.energy = EnergyParams(
            axis=_axis(vs.get("axis", "X1")),
            k=vs.getint("k", 1),
            p=vs.getint("p", 2),
            q=vs.getint("q", 2),
            alpha=vs.getfloat("alpha", 1.0),
            eps=vs.getfloat("eps", 1e-3),
            beta=vs.getfloat("beta", 1e-6),
        )
        cfg.m_max = vs.getint("m_max", cfg.m_max)
    if cp.has_section("discrete"):
        d = cp["discrete"]
        cfg.M = d.getint("m", cfg.M)
        cfg.korder = d.getint("korder", cfg.korder)
    cfg.validate()
    return cfg


def _echo_config(cfg: ExperimentConfig, outdir: str):
    lines = ["[experiment]"]
    for key in ("name", "input", "correction"):
        lines.append(f"{key} = {getattr(cfg, key)}")
    lines += ["", "[tomo]"]
    for key in ("n", "n_out", "variant", "angle_step", "a", "noise", "seed",
                "filter", "compensate"):
        lines.append(f"{key} = {getattr(cfg, key)}")
    lines += ["", "[image]", f"n = {cfg.image_n}"]
    for key in ("strip_width", "amplitude", "dx1", "dx2"):
        lines.append(f"{key} = {getattr(cfg, key)}")
    fp = cfg.flow
    lines += ["", "[flow]",
              f"axis = {fp.axis.name}", f"k = {fp.k}", f"p = {fp.p}",
              f"q = {fp.q}", f"beta = {fp.beta}", f"eps = {fp.eps}",
              f"cfl = {fp.cfl}", f"t_end = {cfg.t_end}"]
    ep = cfg.energy
    lines += ["", "[varsolve]",
              f"axis = {ep.axis.name}", f"k = {ep.k}", f"p = {ep.p}",
              f"q = {ep.q}", f"alpha = {ep.alpha}", f"eps = {ep.eps}",
              f"beta = {ep.beta}", f"m_max = {cfg.m_max}"]
    lines += ["", "[discrete]", f"m = {cfg.M}", f"korder = {cfg.korder}", ""]
    with open(os.path.join(outdir, "config.echo.cfg"), "w") as fh:
        fh.write("\n".join(lines))


def _write_residuals(path, residuals):
    with open(path, "w") as fh:
        fh.write("step,rhs_linf\n")
        for i, r in enumerate(residuals):
            fh.write(f"{i},{r!r}\n")


def _correct_field(cfg: ExperimentConfig, f: ScalarField, outdir: str) -> ScalarField:
    """Run the configured correction stage, writing its diagnostics."""
    if cfg.correction == "none":
        return f
    if cfg.correction == "flow":
        state = evolve(f, cfg.flow, cfg.t_end)
        _write_residuals(os.path.join(outdir, "flow_residuals.csv"), state.residuals)
        return state.u
    if cfg.correction == "varsolve":
        out, trace = iterate(f, cfg.energy, m_max=cfg.m_max)
        with open(os.path.join(outdir, "trace.csv"), "w") as fh:
            fh.write(trace.to_csv())
        return out
    if cfg.correction == "jitter":
        out, shifts = jitter_correct_rows(f, cfg.M, cfg.korder)
    else:  # assign
        out, shifts = block_assign_columns(f, cfg.M, cfg.korder)
    with open(os.path.join(outdir, "shifts.csv"), "w") as fh:
        fh.write(shifts.to_csv())
    return out


def _strip_image(cfg: ExperimentConfig) -> ScalarField:
    n, w = cfg.image_n, cfg.strip_width
    v = np.zeros((n, n))
    lo = (n - w) // 2
    v[lo : lo + w, :] = cfg.amplitude
    return ScalarField(v, cfg.dx1, cfg.dx2)


def _interface_image(cfg: ExperimentConfig) -> ScalarField:
    n = cfg.image_n
    x2 = np.arange(n)
    s = 0.5 * n + 0.15 * n * np.sin(2 * math.pi * x2 / (n - 1))
    i1 = np.arange(n)[:, None]
    v = 0.5 * cfg.amplitude * (1 + np.tanh((i1 - s[None, :]) / 1.2))
    return ScalarField(v, cfg.dx1, cfg.dx2)


def _run_image_experiment(cfg: ExperimentConfig, outdir: str) -> MetricReport:
    f0 = _strip_image(cfg) if cfg.input == "strip" else _interface_image(cfg)
    write_image(os.path.join(outdir, "input.pgm"), f0)
    write_csv(os.path.join(outdir, "input.csv"), f0)
    f1 = _correct_field(cfg, f0, outdir)
    write_image(os.path.join(outdir, "output.pgm"), f1)
    write_csv(os.path.join(outdir, "output.csv"), f1)
    extras = {}
    if cfg.input == "strip":
        extras["fwhm_before"] = float(np.nanmean(strip_fwhm(f0)))
        extras["fwhm_after"] = float(np.nanmean(strip_fwhm(f1)))
    else:
        extras["interface_var_before"] = interface_variance(f0)
        extras["interface_var_after"] = interface_variance(f1)
    return metrics(f1, f0, extras=extras)


def jittered_sinogram(
    ph: ScalarField, angles: np.ndarray, a: float, noise: float, seed: int
) -> tuple[Sinogram, AngularPerturbation]:
    """Sinogram of ph at angles + d, d ~ Uniform[0, a] drawn from seed, plus
    Gaussian noise of standard deviation noise * max |clean sinogram|
    (seeded by seed too), with the perturbation it used."""
    if noise < 0:
        raise TomoError(f"noise must be non-negative, got {noise}")
    pert = sample_uniform_displacement(angles, a, seed)
    sigma = 0.0
    if noise > 0:
        sigma = noise * float(np.abs(radon(ph, angles).field.values).max())
    return radon_perturbed(ph, angles, None, pert, sigma, seed), pert


def _run_tomo_experiment(cfg: ExperimentConfig, outdir: str) -> MetricReport:
    ph = shepp_logan(cfg.n, cfg.variant)
    write_image(os.path.join(outdir, "phantom.pgm"), ph)
    angles = np.arange(round(math.pi / cfg.angle_step)) * cfg.angle_step
    if cfg.a > 0 or cfg.noise > 0:
        sino, pert = jittered_sinogram(ph, angles, cfg.a, cfg.noise, cfg.seed)
        with open(os.path.join(outdir, "displacement.csv"), "w") as fh:
            fh.write("index,displacement\n")
            for i, d in enumerate(pert.d):
                fh.write(f"{i},{float(d)!r}\n")
    else:
        sino = radon(ph, angles)
    write_csv(os.path.join(outdir, "sinogram.csv"), sino.field)
    write_image(os.path.join(outdir, "sinogram.pgm"), sino.field)

    corrected = _correct_field(cfg, sino.field, outdir)
    if cfg.correction != "none":
        write_csv(os.path.join(outdir, "sinogram_corrected.csv"), corrected)
        write_image(os.path.join(outdir, "sinogram_corrected.pgm"), corrected)

    bp_angles = angles + cfg.a / 2 if cfg.compensate else None
    recon = fbp(
        sino.with_field(corrected), cfg.n_out, cfg.filter, backproject_angles=bp_angles
    )
    write_image(os.path.join(outdir, "recon.pgm"), recon)
    write_csv(os.path.join(outdir, "recon.csv"), recon)

    ref = ph if cfg.n_out == cfg.n else shepp_logan(cfg.n_out, cfg.variant)
    extras = {}
    if cfg.correction != "none":
        uncorrected = fbp(sino, cfg.n_out, cfg.filter, backproject_angles=bp_angles)
        write_image(os.path.join(outdir, "recon_uncorrected.pgm"), uncorrected)
        extras["rmse_uncorrected"] = metrics(uncorrected, ref).rmse
    return metrics(recon, ref, extras=extras)


def run_experiment(cfg: ExperimentConfig, outdir: str | None = None) -> MetricReport:
    """Execute the configured pipeline and write all artifacts to outdir.

    Deterministic for a fixed config: all randomness flows through the
    config seed.  Returns the final MetricReport (also written as CSV).
    """
    outdir = outdir or cfg.outdir
    os.makedirs(outdir, exist_ok=True)
    _echo_config(cfg, outdir)
    if cfg.input in ("strip", "interface"):
        report = _run_image_experiment(cfg, outdir)
    else:
        report = _run_tomo_experiment(cfg, outdir)
    with open(os.path.join(outdir, "metrics.csv"), "w") as fh:
        fh.write("metric,value\n")
        for line in report.lines():
            fh.write(line.replace("=", ",", 1) + "\n")
    return report
