#!/usr/bin/env python3
"""Best-of-N wall time of the pipeline's stages at the baseline sizes.

Usage: python scripts/bench_stages.py [--repeat N]

Times, at n = 128, 90 angles, seed 7, jitter bound a = pi/18 and one BLAS
thread: `radon_perturbed`, `fbp` of its sinogram, the fig5 flow (the
[flow] settings of configs/fig5.cfg), `convex_step` with p = 2 and with
p = 1 on that sinogram (k = 1, q = 2, alpha = 1e-3, eps = 1e-3 * ptp^2),
`block_assign_columns` with M = 10 and `jitter_correct_rows` with M = 5;
then `radon_perturbed` and `fbp` once more at the larger size n = 256,
180 angles (same seed and bound), printed with the suffix `_256x180`.
Each stage runs N times (default 5) in this process; the best time, in
milliseconds, is printed with the settings as one JSON line.  Only the
public API is called and nothing is written.

The cold start is measured first: N fresh interpreters, with this
process's environment (so one BLAS thread), each time `import dispflow`
from the package this script imports.  `import_ms` is the best of those
times and `import_rss_mb` the lowest of the children's peak resident set
(`ru_maxrss`).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import dispflow  # noqa: E402
from dispflow import (  # noqa: E402
    Axis,
    EnergyParams,
    block_assign_columns,
    convex_step,
    evolve,
    fbp,
    jitter_correct_rows,
    radon_perturbed,
    sample_uniform_displacement,
    shepp_logan,
)
from dispflow.experiment import load_config  # noqa: E402

N, N_ANGLES, SEED, A = 128, 90, 7, math.pi / 18
LARGE_N, LARGE_ANGLES = 256, 180
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def best_ms(fn, repeat: int) -> float:
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


IMPORT_CHILD = """
import resource, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import dispflow
print(time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def cold_start(repeat: int) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(dispflow.__file__)))
    cmd = [sys.executable, "-c", IMPORT_CHILD, src]
    runs = [subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.split()
            for _ in range(repeat)]
    return {
        "import_ms": round(1e3 * min(float(t) for t, _ in runs), 3),
        "import_rss_mb": round(min(int(kb) for _, kb in runs) / 1024.0, 3),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=5, help="runs per stage (default 5)")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    def tomo_stages(n, n_angles, suffix=""):
        ph = shepp_logan(n)
        angles = np.arange(n_angles) * math.pi / n_angles
        pert = sample_uniform_displacement(angles, A, SEED)
        sino = radon_perturbed(ph, angles, None, pert, 0.0, SEED)
        return sino, {
            "radon_perturbed" + suffix: lambda: radon_perturbed(ph, angles, None, pert, 0.0, SEED),
            "fbp" + suffix: lambda: fbp(sino, n),
        }

    sino, stages = tomo_stages(N, N_ANGLES)
    v = sino.field
    fig5 = load_config(os.path.join(ROOT, "configs", "fig5.cfg"))
    eps = 1e-3 * float(np.ptp(v.values)) ** 2

    def step(p):
        return EnergyParams(axis=Axis.X1, k=1, p=p, q=2, alpha=1e-3, eps=eps)

    stages.update({
        "fig5_flow": lambda: evolve(v, fig5.flow, fig5.t_end),
        "convex_step_p2": lambda: convex_step(v, step(2)),
        "convex_step_p1": lambda: convex_step(v, step(1)),
        "block_assign_columns_M10": lambda: block_assign_columns(v, 10),
        "jitter_correct_rows_M5": lambda: jitter_correct_rows(v, 5),
    })
    stages.update(tomo_stages(LARGE_N, LARGE_ANGLES, f"_{LARGE_N}x{LARGE_ANGLES}")[1])
    out = {"n": N, "angles": N_ANGLES, "seed": SEED, "repeat": args.repeat, "unit": "ms"}
    out.update(cold_start(args.repeat))
    out.update({name: round(best_ms(fn, args.repeat), 3) for name, fn in stages.items()})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
