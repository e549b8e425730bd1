#!/usr/bin/env python3
"""Sweep the flow stopping time for the angular-correction pipeline and
report reconstruction RMSE at each checkpoint.

This is the calibration procedure behind the t_end values in configs/:
the flow has no intrinsic stopping rule, so we stop where reconstruction
RMSE against the phantom is minimized on a validation seed.

Usage: python scripts/calibrate_correction.py [a_expr] [seed]
"""

import math
import sys

from dispflow import (
    FlowParams,
    Sinogram,
    evolve,
    fbp,
    metrics,
    radon_perturbed,
    sample_uniform_displacement,
    shepp_logan,
)
from dispflow.experiment import parse_angle
from dispflow.grid import Axis
from dispflow.tomo import angle_grid


def main(argv):
    a = parse_angle(argv[1]) if len(argv) > 1 else math.pi / 18
    seed = int(argv[2]) if len(argv) > 2 else 7
    n = 128
    angles = angle_grid(math.pi / 90)
    ph = shepp_logan(n)
    pert = sample_uniform_displacement(angles, a, seed)
    sino = radon_perturbed(ph, angles, None, pert)
    base = metrics(fbp(sino, n), ph).rmse
    print(f"a={a:.5f} seed={seed}  uncorrected rmse {base:.5f}")
    for q in (1, 2):
        params = FlowParams(axis=Axis.X1, k=1, p=2, q=q)
        cur, t_acc = sino.field, 0.0
        for t in (5e-4, 1e-3, 2e-3, 4e-3, 6e-3, 1e-2, 2e-2):
            cur = evolve(cur, params, t - t_acc).u
            t_acc = t
            rmse = metrics(fbp(sino.with_field(cur), n), ph).rmse
            print(f"  q={q} t={t:g}  rmse {rmse:.5f}  "
                  f"({100 * (1 - rmse / base):+.1f}% vs uncorrected)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
