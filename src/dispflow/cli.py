"""Command-line interface: one thin verb per module operation.

Angles accept pi expressions (``--angle-step pi/90``).  Fields travel as
.pgm (16-bit quantized) or .csv (lossless).  Sinogram files carry their
angle step (see ``tomo.angle_grid``) as their first spacing, so ``fbp`` needs
no sidecar file: without ``--angle-step`` it takes that spacing if round(pi /
spacing) is the file's row count, else pi / n_rows (a headerless CSV, say).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .discrete import block_assign_columns, jitter_correct_rows
from .experiment import _axis, _write_residuals, jittered_sinogram, load_config, parse_angle, run_experiment
from .fileio import read_image, write_image
from .flows import FlowParams, evolve
from .grid import ScalarField
from .metrics import metrics
from .tomo import Sinogram, TomoError, angle_grid, default_offsets, fbp, radon, shepp_logan
from .varsolve import EnergyParams, iterate


def _as_sinogram(field: ScalarField, angle_step: float | None) -> Sinogram:
    """The file's rows angle_step apart; None: the module docstring's rule."""
    if angle_step is None:
        try:  # a spacing giving more rows than the file is not expanded
            fits = field.dx1 * (field.n1 + 1) > math.pi and angle_grid(field.dx1).size == field.n1
        except TomoError:  # a spacing giving fewer than two rows
            fits = False
        angle_step = field.dx1 if fits else math.pi / field.n1
    return Sinogram(field, np.arange(field.n1) * angle_step, default_offsets(field.n1, field.n2))


def _add_flow_args(sp):
    sp.add_argument("--axis", default="X1")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--beta", type=float, default=1e-6)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dispflow")
    sub = ap.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("phantom", help="write a Shepp-Logan phantom image")
    sp.add_argument("--n", type=int, default=128)
    sp.add_argument("--variant", default="high-contrast")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("sinogram", help="Radon transform of an image")
    sp.add_argument("--in", dest="infile")
    sp.add_argument("--n", type=int, default=128, help="phantom size if no --in")
    sp.add_argument("--variant", default="high-contrast")
    sp.add_argument("--angle-step", default="pi/90")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("perturb", help="Radon transform with angular jitter")
    sp.add_argument("--n", type=int, default=128)
    sp.add_argument("--variant", default="high-contrast")
    sp.add_argument("--angle-step", default="pi/90")
    sp.add_argument("--a", default="pi/18", help="displacement bound")
    sp.add_argument("--noise", type=float, default=0.0,
                    help="Gaussian sigma as fraction of sinogram max")
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("flow", help="evolve a field under a nonlinear flow")
    sp.add_argument("--in", dest="infile", required=True)
    _add_flow_args(sp)
    sp.add_argument("--cfl", type=float, default=0.5)
    sp.add_argument("--t-end", type=float, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--residuals", help="optional CSV of per-step ||rhs||_inf")

    sp = sub.add_parser("varsolve", help="lagged convex iteration on a field")
    sp.add_argument("--in", dest="infile", required=True)
    _add_flow_args(sp)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--eps", type=float, default=1e-3)
    sp.add_argument("--m", type=int, default=50)
    sp.add_argument("--out", required=True)
    sp.add_argument("--trace", help="optional CSV of the iteration trace")

    for verb, helptext in (
        ("jitter", "correct integer row jitter by exhaustive search"),
        ("assign", "reorder columns by greedy block assignment"),
    ):
        sp = sub.add_parser(verb, help=helptext)
        sp.add_argument("--in", dest="infile", required=True)
        sp.add_argument("--M", type=int, default=5)
        sp.add_argument("--korder", type=int, default=1)
        sp.add_argument("--out", required=True)
        sp.add_argument("--shifts", help="optional CSV of recovered shifts")

    sp = sub.add_parser("fbp", help="filtered backprojection of a sinogram")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--n-out", type=int, default=128)
    sp.add_argument("--filter", default="ram-lak")
    sp.add_argument("--angle-step", default=None,
                    help="angle step of the sinogram rows (default: the file's first "
                         "spacing if round(pi / spacing) is its row count, else pi/n_rows)")
    sp.add_argument("--compensate", default=None,
                    help="add this constant to every backprojection angle")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("metrics", help="compare two fields")
    sp.add_argument("--a", required=True, help="field under test")
    sp.add_argument("--b", required=True, help="reference field")

    sp = sub.add_parser("experiment", help="run a named experiment config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--outdir", default=None)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except Exception as exc:  # surface module errors as exit diagnostics
        print(f"dispflow: error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.verb == "phantom":
        write_image(args.out, shepp_logan(args.n, args.variant))

    elif args.verb == "sinogram":
        img = read_image(args.infile) if args.infile else shepp_logan(args.n, args.variant)
        write_image(args.out, radon(img, angle_grid(parse_angle(args.angle_step))).field)

    elif args.verb == "perturb":
        angles = angle_grid(parse_angle(args.angle_step))
        a = parse_angle(args.a)
        sino, _ = jittered_sinogram(shepp_logan(args.n, args.variant), angles, a, args.noise, args.seed)
        write_image(args.out, sino.field)

    elif args.verb == "flow":
        params = FlowParams(axis=_axis(args.axis), k=args.k, p=args.p,
                            q=args.q, beta=args.beta, cfl=args.cfl)
        state = evolve(read_image(args.infile), params, args.t_end)
        write_image(args.out, state.u)
        if args.residuals:
            _write_residuals(args.residuals, state.residuals)

    elif args.verb == "varsolve":
        params = EnergyParams(axis=_axis(args.axis), k=args.k, p=args.p,
                              q=args.q, alpha=args.alpha, eps=args.eps,
                              beta=args.beta)
        out, trace = iterate(read_image(args.infile), params, m_max=args.m)
        write_image(args.out, out)
        if args.trace:
            with open(args.trace, "w") as fh:
                fh.write(trace.to_csv())

    elif args.verb in ("jitter", "assign"):
        fn = jitter_correct_rows if args.verb == "jitter" else block_assign_columns
        out, shifts = fn(read_image(args.infile), args.M, args.korder)
        write_image(args.out, out)
        if args.shifts:
            with open(args.shifts, "w") as fh:
                fh.write(shifts.to_csv())

    elif args.verb == "fbp":
        field = read_image(args.infile)
        step = None if args.angle_step is None else parse_angle(args.angle_step)
        sino = _as_sinogram(field, step)
        bp = None
        if args.compensate is not None:
            bp = sino.angles + parse_angle(args.compensate)
        write_image(args.out, fbp(sino, args.n_out, args.filter, backproject_angles=bp))

    elif args.verb == "metrics":
        report = metrics(read_image(args.a), read_image(args.b))
        for line in report.lines():
            print(line)

    elif args.verb == "experiment":
        cfg = load_config(args.config)
        report = run_experiment(cfg, args.outdir)
        for line in report.lines():
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
