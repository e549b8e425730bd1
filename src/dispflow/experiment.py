"""Experiment pipelines: named configs drive phantom -> projection ->
correction -> reconstruction -> metrics, with all intermediates on disk.

Config files are line-based ``key = value`` with ``[section]`` headers
(parsed by configparser).  ``ExperimentConfig``'s fields are the one schema
for both parsing and echo: each names its section, and its key where that
differs from the field name; ``[flow]`` and ``[varsolve]`` are the fields of
``FlowParams`` and ``EnergyParams`` followed by ``t_end`` and ``m_max``.  An
unknown section or key, or a value that does not parse, is a ConfigError.
``parse_config`` parses a config file's sections and the ``dispflow`` verbs'
flags alike; ``correct_field`` runs the correction stage for both and
returns its diagnostic rather than writing it.
The pipelines compute every stage first and return their report with an
ordered table of artifacts (file name to field, or to a text header and
its lines).  Only then does ``run_experiment`` make the output directory
and write a ``config.echo.cfg`` copy (all but ``outdir``), every artifact
and a ``metrics.csv``, so a run is reproducible from its output directory
alone and a failing stage writes nothing.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .discrete import block_assign_columns, jitter_correct_rows
# perfbench/tracing.py patches write_image and write_csv here; fields go through write_image
from .fileio import write_csv, write_image, write_text  # noqa: F401
from .flows import FlowParams, evolve
from .grid import Axis, ScalarField
from .metrics import MetricReport, interface_variance, metrics, strip_fwhm
from .tomo import (
    FILTERS,
    MIN_SIZE,
    VARIANTS,
    AngularPerturbation,
    Sinogram,
    TomoError,
    angle_count,
    angle_grid,
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


def _setting(section: str, default, key: str | None = None, parse=None, echo: bool = True):
    """A field read from ``key`` (default: the field's name) in ``[section]``,
    parsed by ``parse`` (default: by its annotation)."""
    return field(default=default,
                 metadata={"section": section, "key": key, "parse": parse, "echo": echo})


@dataclass
class ExperimentConfig:
    """Every pipeline setting.  Each field is read from, and echoed to, the
    config section and key its metadata names; see configs/ for examples."""

    name: str = _setting("experiment", "experiment")  # load_config: the file's stem
    input: str = _setting("experiment", "phantom")  # phantom | strip | interface
    correction: str = _setting("experiment", "none")  # none | flow | varsolve | jitter | assign
    outdir: str = _setting("experiment", "out", echo=False)
    # tomography settings
    n: int = _setting("tomo", 128)
    n_out: int = _setting("tomo", 128)  # load_config: the file's n when [tomo] omits it
    variant: str = _setting("tomo", "high-contrast")
    angle_step: float = _setting("tomo", math.pi / 90, parse=parse_angle)
    a: float = _setting("tomo", 0.0, parse=parse_angle)
    noise: float = _setting("tomo", 0.0)  # Gaussian sigma as a fraction of the sinogram max
    seed: int = _setting("tomo", 7)
    filter: str = _setting("tomo", "ram-lak")
    compensate: bool = _setting("tomo", False)  # backproject at theta + a/2 (known-mean shift)
    # synthetic-image settings (strip / interface inputs)
    image_n: int = _setting("image", 64, key="n")
    strip_width: int = _setting("image", 5)
    amplitude: float = _setting("image", 255.0)
    dx1: float = _setting("image", 0.1)
    dx2: float = _setting("image", 0.1)
    # one key per field of the nested parameter object, then the stage's own
    flow: FlowParams = field(default_factory=FlowParams, metadata={"section": "flow"})
    t_end: float = _setting("flow", 1e-3)
    energy: EnergyParams = field(default_factory=EnergyParams, metadata={"section": "varsolve"})
    m_max: int = _setting("varsolve", 50)
    # discrete settings
    M: int = _setting("discrete", 5, key="m")
    korder: int = _setting("discrete", 1)

    def __post_init__(self):
        # each check stands for a stage's failure on a setting the config can
        # name at load time, or for a setting run as another one
        for what, value, names in (("correction stage", self.correction, _STAGES),
                                   ("input kind", self.input, _INPUTS),
                                   ("phantom variant", self.variant, VARIANTS),
                                   ("filter", self.filter, FILTERS)):
            if value not in names:
                raise ConfigError(f"unknown {what} {value!r}")
        for key in ("a", "noise", "t_end", "dx1", "dx2"):  # dx 0: ScalarField's 1/n
            if not 0 <= getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be non-negative and finite, got {getattr(self, key)}")
        for key, value, low in (("m_max", self.m_max, 1), ("n", self.n, MIN_SIZE),
                                ("n_out", self.n_out, MIN_SIZE),
                                ("m", self.M, int(self.correction == "assign"))):  # jitter: M >= 0
            if value < low:
                raise ConfigError(f"{key} must be at least {low}, got {value}")
        if self.korder not in (1, 2):
            raise ConfigError(f"korder must be 1 or 2, got {self.korder}")
        if self.input == "strip" and not 1 <= self.strip_width <= self.image_n - 2:
            # a wider strip leaves no background row on one side: FWHM reads nan
            raise ConfigError(f"strip_width must lie in [1, n - 2] = [1, {self.image_n - 2}], "
                              f"got {self.strip_width}")
        try:
            angle_count(self.angle_step)
        except TomoError as exc:
            raise ConfigError(str(exc)) from None


def _axis(text: str) -> Axis:
    t = str(text).strip().upper()
    if t in ("X1", "0", "THETA"):
        return Axis.X1
    if t in ("X2", "1", "OFFSET"):
        return Axis.X2
    raise ConfigError(f"unknown axis {text!r}")


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ConfigError(f"not a boolean: {text!r}") from None


def _schema() -> dict:
    """{section: {key: (owner, attribute, parser, echoed)}} in file order, from
    ExperimentConfig's fields; owner is the FlowParams or EnergyParams field
    that holds the attribute, or None.  The parsers are looked up from the
    (string) annotations here, once, rather than on every load."""
    parsers = {"str": str, "int": int, "float": float, "bool": _boolean, "Axis": _axis}
    table = {}
    for f in fields(ExperimentConfig):
        keys = table.setdefault(f.metadata["section"], {})
        if f.name in _NESTED:
            for g in fields(_NESTED[f.name]):
                keys[g.name] = (f.name, g.name, parsers[g.type], True)
        else:
            parse = f.metadata["parse"] or parsers[f.type]
            keys[f.metadata["key"] or f.name] = (None, f.name, parse, f.metadata["echo"])
    return table


_NESTED = {f.name: f.default_factory for f in fields(ExperimentConfig)
           if is_dataclass(f.default_factory)}
_SCHEMA = _schema()


def load_config(path) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(" ".join(str(exc).split())) from None
    if not read:
        raise ConfigError(f"cannot read config {path!r}")
    return parse_config({section: cp[section] for section in cp.sections()},
                        name=os.path.splitext(os.path.basename(path))[0])


def parse_config(sections, **kw) -> ExperimentConfig:
    """The ExperimentConfig of {section: {key: text}}: each text parsed, and
    every setting defaulted and checked, by the schema; kw sets fields as is."""
    for section, items in sections.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, text in items.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            owner, attr, parse, _ = _SCHEMA[section][key]
            try:
                value = parse(text)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
            (kw.setdefault(owner, {}) if owner else kw)[attr] = value
    if "n" in kw:
        kw.setdefault("n_out", kw["n"])
    for owner, params in _NESTED.items():
        if owner in kw:
            kw[owner] = params(**kw[owner])
    return ExperimentConfig(**kw)


def _echo_config(cfg: ExperimentConfig, outdir: str):
    lines = []
    for section, keys in _SCHEMA.items():
        lines += ["", f"[{section}]"]
        for key, (owner, attr, _, echo) in keys.items():
            if echo:
                value = getattr(getattr(cfg, owner) if owner else cfg, attr)
                lines.append(f"{key} = {value.name if isinstance(value, Axis) else value}")
    write_text(os.path.join(outdir, "config.echo.cfg"), "\n".join(lines[1:] + [""]))


def correct_field(cfg: ExperimentConfig, f: ScalarField) -> tuple[ScalarField, tuple | None]:
    """f after cfg's correction stage, with the stage's diagnostic CSV
    (per-step ||rhs||_inf, the iteration trace or the recovered shifts) as
    the arguments of fileio.write_text after the path: a header and its
    lines, which a flow gives as a one-pass generator.  None for no
    correction.  Writes nothing."""
    if cfg.correction == "none":
        return f, None
    if cfg.correction == "flow":
        state = evolve(f, cfg.flow, cfg.t_end)
        # formatted one line at a time as written: a long run has tens of thousands of steps
        return state.u, ("step,rhs_linf\n", (f"{i},{r!r}\n" for i, r in enumerate(state.residuals)))
    if cfg.correction == "varsolve":
        out, trace = iterate(f, cfg.energy, m_max=cfg.m_max)
        return out, (trace.to_csv(), ())
    fn = jitter_correct_rows if cfg.correction == "jitter" else block_assign_columns
    out, shifts = fn(f, cfg.M, cfg.korder)
    return out, (shifts.to_csv(), ())


def _corrected(cfg: ExperimentConfig, f: ScalarField, artifacts: dict) -> ScalarField:
    """correct_field's field; its diagnostic, if any, joins artifacts."""
    out, diagnostic = correct_field(cfg, f)
    if diagnostic is not None:
        name = {"flow": "flow_residuals.csv", "varsolve": "trace.csv"}.get(cfg.correction, "shifts.csv")
        artifacts[name] = diagnostic
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


def _run_image_experiment(cfg: ExperimentConfig) -> tuple[MetricReport, dict]:
    f0 = _strip_image(cfg) if cfg.input == "strip" else _interface_image(cfg)
    artifacts = {"input.pgm": f0, "input.csv": f0}
    f1 = _corrected(cfg, f0, artifacts)
    artifacts.update({"output.pgm": f1, "output.csv": f1})
    extras = {}
    if cfg.input == "strip":
        extras["fwhm_before"] = float(np.nanmean(strip_fwhm(f0)))
        extras["fwhm_after"] = float(np.nanmean(strip_fwhm(f1)))
    else:
        extras["interface_var_before"] = interface_variance(f0)
        extras["interface_var_after"] = interface_variance(f1)
    return metrics(f1, f0, extras=extras), artifacts


def jittered_sinogram(
    ph: ScalarField, angles: np.ndarray, a: float, noise: float, seed: int
) -> tuple[Sinogram, AngularPerturbation]:
    """Sinogram of ph at angles + d, d ~ Uniform[0, a] drawn from seed, plus
    Gaussian noise of standard deviation noise * max |clean sinogram|
    (seeded by seed too), with the perturbation it used."""
    if not 0 <= noise < math.inf:  # NaN would drop the noise
        raise TomoError(f"noise must be non-negative and finite, got {noise}")
    pert = sample_uniform_displacement(angles, a, seed)
    sigma = 0.0
    if noise > 0:
        sigma = noise * float(np.abs(radon(ph, angles).field.values).max())
    return radon_perturbed(ph, angles, None, pert, sigma, seed), pert


def _run_tomo_experiment(cfg: ExperimentConfig) -> tuple[MetricReport, dict]:
    ph = shepp_logan(cfg.n, cfg.variant)
    angles = angle_grid(cfg.angle_step)
    sino, pert = jittered_sinogram(ph, angles, cfg.a, cfg.noise, cfg.seed)
    artifacts = {"phantom.pgm": ph}
    if cfg.a > 0 or cfg.noise > 0:
        artifacts["displacement.csv"] = (
            "index,displacement\n", [f"{i},{float(d)!r}\n" for i, d in enumerate(pert.d)])
    artifacts.update({"sinogram.csv": sino.field, "sinogram.pgm": sino.field})

    corrected = _corrected(cfg, sino.field, artifacts)
    if cfg.correction != "none":
        artifacts.update({"sinogram_corrected.csv": corrected, "sinogram_corrected.pgm": corrected})

    bp_angles = angles + cfg.a / 2 if cfg.compensate else None
    recon = fbp(
        sino.with_field(corrected), cfg.n_out, cfg.filter, backproject_angles=bp_angles
    )
    artifacts.update({"recon.pgm": recon, "recon.csv": recon})

    ref = ph if cfg.n_out == cfg.n else shepp_logan(cfg.n_out, cfg.variant)
    extras = {}
    if cfg.correction != "none":
        uncorrected = fbp(sino, cfg.n_out, cfg.filter, backproject_angles=bp_angles)
        artifacts["recon_uncorrected.pgm"] = uncorrected
        extras["rmse_uncorrected"] = metrics(uncorrected, ref).rmse
    return metrics(recon, ref, extras=extras), artifacts


def run_experiment(cfg: ExperimentConfig, outdir: str | None = None) -> MetricReport:
    """Execute the configured pipeline, then write all its artifacts to outdir.

    Deterministic for a fixed config: all randomness flows through the
    config seed.  Returns the final MetricReport (also written as CSV).
    Every stage returns before the output directory is made, so a stage's
    failure (its own one-line error on a field too small for it, say)
    writes nothing.
    """
    run = _run_image_experiment if cfg.input in ("strip", "interface") else _run_tomo_experiment
    report, artifacts = run(cfg)
    artifacts["metrics.csv"] = (
        "metric,value\n", [line.replace("=", ",", 1) + "\n" for line in report.lines()])
    outdir = outdir or cfg.outdir
    os.makedirs(outdir, exist_ok=True)
    _echo_config(cfg, outdir)
    for name, artifact in artifacts.items():
        path = os.path.join(outdir, name)
        if isinstance(artifact, ScalarField):
            write_image(path, artifact)
        else:
            write_text(path, *artifact)
    return report
