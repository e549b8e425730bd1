"""Command-line interface: one thin verb per module operation.

Setting flags are the config keys of ``[tomo]`` or of a correction verb's
stage, parsed, defaulted and checked by ``experiment.parse_config`` (README,
"Command line"); correction verbs run ``experiment.correct_field`` and
write ``--out``, then the optional diagnostic file.
``perturb --a`` defaults to pi/18; ``fbp --angle-step`` and ``--compensate``
are not config keys.

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

from .experiment import correct_field, jittered_sinogram, load_config, parse_angle, parse_config, run_experiment
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


def _add_flow_args(sp):
    for flag in ("--axis", "--k", "--p", "--q", "--beta"):
        sp.add_argument(flag)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dispflow")
    sub = ap.add_subparsers(dest="verb", required=True)

    def verb(name, helptext):
        # an absent flag is left out of the namespace: a setting takes the schema's default
        return sub.add_parser(name, help=helptext, argument_default=argparse.SUPPRESS)

    sp = verb("phantom", "write a Shepp-Logan phantom image")
    sp.add_argument("--n")
    sp.add_argument("--variant")
    sp.add_argument("--out", required=True)

    sp = verb("sinogram", "Radon transform of an image")
    sp.add_argument("--in", dest="infile")
    sp.add_argument("--n", help="phantom size if no --in")
    sp.add_argument("--variant")
    sp.add_argument("--angle-step")
    sp.add_argument("--out", required=True)

    sp = verb("perturb", "Radon transform with angular jitter")
    sp.add_argument("--n")
    sp.add_argument("--variant")
    sp.add_argument("--angle-step")
    sp.add_argument("--a", default="pi/18", help="displacement bound")
    sp.add_argument("--noise", help="Gaussian sigma as fraction of sinogram max")
    sp.add_argument("--seed")
    sp.add_argument("--out", required=True)

    sp = verb("flow", "evolve a field under a nonlinear flow")
    sp.add_argument("--in", dest="infile", required=True)
    _add_flow_args(sp)
    sp.add_argument("--cfl")
    sp.add_argument("--t-end", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--residuals", dest="diagnostic", metavar="RESIDUALS",
                    help="optional CSV of per-step ||rhs||_inf")

    sp = verb("varsolve", "lagged convex iteration on a field")
    sp.add_argument("--in", dest="infile", required=True)
    _add_flow_args(sp)
    sp.add_argument("--alpha")
    sp.add_argument("--eps")
    sp.add_argument("--m", dest="m_max", metavar="M")
    sp.add_argument("--out", required=True)
    sp.add_argument("--trace", dest="diagnostic", metavar="TRACE",
                    help="optional CSV of the iteration trace")

    for name, helptext in (
        ("jitter", "correct integer row jitter by exhaustive search"),
        ("assign", "reorder columns by greedy block assignment"),
    ):
        sp = verb(name, helptext)
        sp.add_argument("--in", dest="infile", required=True)
        sp.add_argument("--M", dest="m")
        sp.add_argument("--korder")
        sp.add_argument("--out", required=True)
        sp.add_argument("--shifts", dest="diagnostic", metavar="SHIFTS",
                        help="optional CSV of recovered shifts")

    sp = verb("fbp", "filtered backprojection of a sinogram")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--n-out")
    sp.add_argument("--filter")
    sp.add_argument("--angle-step", dest="row_step", metavar="ANGLE_STEP",
                    help="angle step of the sinogram rows (default: the file's first "
                         "spacing if round(pi / spacing) is its row count, else pi/n_rows)")
    sp.add_argument("--compensate", dest="bp_shift", metavar="COMPENSATE",
                    help="add this constant to every backprojection angle")
    sp.add_argument("--out", required=True)

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
    if verb in ("flow", "varsolve", "jitter", "assign"):
        section = "discrete" if verb in ("jitter", "assign") else verb
        cfg = parse_config({section: kw}, correction=verb)
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
