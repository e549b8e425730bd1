"""Command-line interface: one thin verb per module operation.

Setting flags are config keys, built from the schema: ``--`` and the key
with ``-`` for ``_``, but ``--m`` for ``[varsolve] m_max`` and ``--M`` for
``[discrete] m``.  A tomography verb takes its ``[tomo]`` keys in
``_TOMO_VERBS``, a correction verb every key of its stage's section
(``experiment.CORRECTIONS``); ``experiment.parse_config`` parses, defaults
and checks them (README, "Command line").  Correction verbs run
``experiment.correct_field`` and write ``--out``, then the optional copy of
the stage's diagnostic file.  ``perturb --a`` defaults to pi/18;
``fbp --angle-step`` and ``--compensate`` are not config keys.

Angles accept pi expressions (``--angle-step pi/90``).  Fields travel as
.pgm (16-bit quantized) or .csv (lossless).  Sinogram files carry their
angle step (see ``tomo.angle_grid``) as their first spacing, so ``fbp`` needs
no sidecar file: without ``--angle-step`` it takes that spacing if round(pi /
spacing) is the file's row count, else pi / n_rows (a headerless CSV, say).
A given ``--angle-step`` must give the file's row count.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .experiment import (
    _SCHEMA,
    CORRECTIONS,
    correct_field,
    jittered_sinogram,
    load_config,
    parse_angle,
    parse_config,
    run_experiment,
)
from .fileio import read_image, write_image, write_text
from .grid import ScalarField
from .metrics import metrics
from .tomo import Sinogram, TomoError, angle_count, angle_grid, default_offsets, fbp, shepp_logan


def _as_sinogram(field: ScalarField, angle_step: float | None) -> Sinogram:
    """The file's rows angle_step apart; None: the module docstring's rule."""
    if angle_step is None:
        try:
            fits = angle_count(field.dx1) == field.n1
        except TomoError:  # a spacing giving fewer than two rows, or too many to count
            fits = False
        angle_step = field.dx1 if fits else math.pi / field.n1
    return Sinogram(field, np.arange(field.n1) * angle_step, default_offsets(field.n1, field.n2))


# the tomography verbs: their help and the [tomo] keys they take as flags
_TOMO_VERBS = {
    "phantom": ("write a Shepp-Logan phantom image", "n variant"),
    "sinogram": ("Radon transform of --in, or of the --n phantom", "n variant angle_step"),
    "perturb": ("Radon transform with jitter up to --a (default pi/18)", "n variant angle_step a noise seed"),
    "fbp": ("filtered backprojection of a sinogram", "n_out filter"),
}
_RENAMED = {"m_max": "--m", "m": "--M"}  # [varsolve] m_max, [discrete] m


def _add_settings(sp, section, keys):
    """A flag per key of [section]: --key with - for _, but for _RENAMED."""
    for key in keys:
        # a command line names its own flow time; a config defaults it
        sp.add_argument(_RENAMED.get(key, "--" + key.replace("_", "-")), dest=key,
                        required=key == "t_end", help=f"[{section}] {key}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dispflow")
    sub = ap.add_subparsers(dest="verb", required=True)

    def verb(name, helptext):
        # an absent flag is left out of the namespace: a setting takes the schema's default
        return sub.add_parser(name, help=helptext, argument_default=argparse.SUPPRESS)

    tomo = {}
    for name, (helptext, keys) in _TOMO_VERBS.items():
        sp = tomo[name] = verb(name, helptext)
        if name in ("sinogram", "fbp"):
            sp.add_argument("--in", dest="infile", required=name == "fbp")
        _add_settings(sp, "tomo", keys.split())
        sp.add_argument("--out", required=True)
    tomo["perturb"].set_defaults(a="pi/18")
    tomo["fbp"].add_argument("--angle-step", dest="row_step", metavar="ANGLE_STEP",
                             help="angle step of the sinogram rows (default: the file's first "
                                  "spacing if round(pi / spacing) is its row count, else pi/n_rows)")
    tomo["fbp"].add_argument("--compensate", dest="bp_shift", metavar="COMPENSATE",
                             help="add this constant to every backprojection angle")

    for name, stage in CORRECTIONS.items():
        sp = verb(name, stage.help)
        sp.add_argument("--in", dest="infile", required=True)
        _add_settings(sp, stage.section, _SCHEMA[stage.section])
        sp.add_argument("--out", required=True)
        sp.add_argument(stage.flag, dest="diagnostic", metavar=stage.flag[2:].upper(),
                        help=f"optional copy of the experiment's {stage.diagnostic}")

    sp = verb("metrics", "compare two fields")
    sp.add_argument("--a", required=True, help="field under test")
    sp.add_argument("--b", required=True, help="reference field")

    sp = verb("experiment", "run a named experiment config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--outdir")
    return ap


def main(argv=None) -> int:
    kw = vars(build_parser().parse_args(argv))
    try:
        return _dispatch(kw.pop("verb"), kw)
    except Exception as exc:  # surface module errors as exit diagnostics
        print(f"dispflow: error: {exc}", file=sys.stderr)
        return 1


def _dispatch(verb: str, kw: dict) -> int:
    """Run verb on its flags kw; what is left once the file flags are popped
    is the verb's settings."""
    if verb in ("metrics", "experiment"):
        if verb == "metrics":
            report = metrics(read_image(kw["a"]), read_image(kw["b"]))
        else:
            report = run_experiment(load_config(kw["config"]), kw.get("outdir"))
        for line in report.lines():
            print(line)
        return 0

    infile, out, diagnostic = kw.pop("infile", None), kw.pop("out"), kw.pop("diagnostic", None)
    if verb in CORRECTIONS:
        cfg = parse_config({CORRECTIONS[verb].section: kw}, correction=verb)
        corrected, text = correct_field(cfg, read_image(infile))
        write_image(out, corrected)
        if diagnostic:
            write_text(diagnostic, *text)
        return 0

    step, shift = kw.pop("row_step", None), kw.pop("bp_shift", None)
    cfg = parse_config({"tomo": kw})
    if verb == "phantom":
        write_image(out, shepp_logan(cfg.n, cfg.variant))

    elif verb == "fbp":
        field = read_image(infile)
        step = None if step is None else parse_angle(step)
        sino = _as_sinogram(field, step)
        if step is not None and (count := angle_count(step)) != field.n1:
            raise TomoError(f"angle step {step} gives {count} angles, the file has {field.n1} rows")
        bp = None if shift is None else sino.angles + parse_angle(shift)
        write_image(out, fbp(sino, cfg.n_out, cfg.filter, backproject_angles=bp))

    else:  # sinogram, perturb: a clean sinogram is the jittered one at a = noise = 0
        img = read_image(infile) if infile else shepp_logan(cfg.n, cfg.variant)
        sino, _ = jittered_sinogram(img, angle_grid(cfg.angle_step), cfg.a, cfg.noise, cfg.seed)
        write_image(out, sino.field)
    return 0


if __name__ == "__main__":
    sys.exit(main())
