#!/usr/bin/env python3
"""Best-of-N wall time of the pipeline's stages at the baseline sizes.

Usage: python scripts/bench_stages.py [--repeat N]

Times, at n = 128, 90 angles, seed 7, jitter bound a = pi/18 and one BLAS
thread: `radon_perturbed`, `fbp` of its sinogram, the fig5 flow (the
[flow] settings of configs/fig5.cfg), `convex_step` with p = 2 and with
p = 1 on that sinogram (k = 1, q = 2, alpha = 1e-3, eps = 1e-3 * ptp^2),
`iterate_k1p2q2` and `iterate_k1p2q1` (50 lagged iterations with the
p = 2 settings, q = 2 and q = 1, stop_tol = 0), `iterate_k1p2q2_noisy`
(the same q = 2 run on that sinogram plus Gaussian noise of standard
deviation 1% of its maximum, seed 7: no column repeats, so it times the
convex step that solves every column), `block_assign_columns`
with M = 10 and `jitter_correct_rows` with M = 5;
`load_configs` (`load_config` of every shipped configs/*.cfg in turn, the
parsing that the benchmark's config workloads do in their set-up);
then `radon_perturbed` and `fbp` once more at the larger size n = 256,
180 angles (same seed and bound), printed with the suffix `_256x180`.
The explicit flow stepper is timed on its own inputs: `fig2_flow` and
`fig3_flow` evolve the input images of configs/fig2.cfg and fig3.cfg
under their [flow] settings, and `strip_step_us` is one step of
acceptance criterion 3's (k, p, q) = (2, 2, 2) strip (64 x 4, amplitude
1e4, dx 0.1) in microseconds: the best time of a run to t_end = 5e-11
(about 4,400 steps) over its step count.  Each stage runs N times
(default 5) in this process; the best time, in milliseconds unless the
name says otherwise, is printed with the settings as one JSON line,
together with `distinct_columns` and `noisy_distinct_columns`, the number
of distinct columns of the two sinograms, which is the number of lines a
p = 2 convex step along X1 solves.  Only
the public API and the configs' image builders are called, and nothing is
written.

The cold start is measured first: N fresh interpreters, with this
process's environment (so one BLAS thread), each time `import dispflow`
from the package this script imports.  `import_ms` is the best of those
times and `import_rss_mb` the lowest of the children's peak resident set
(`ru_maxrss`).  `first_convex_step_ms` is the best, over N further fresh
interpreters, of the first `convex_step` (p = 2) of a process on the
sinogram above: the cold cost of the lagged iteration, the load of
scipy's LAPACK wrappers included, which a stage timed in this process
never sees.  `first_convex_step_rss_mb` is the lowest peak resident set
of those children after that step (a peak that includes compiling the
package, when no bytecode is cached), and `first_convex_step_scipy_modules`
the number of `scipy*` entries it left in `sys.modules` (the largest over
the children).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
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
    FlowParams,
    ScalarField,
    block_assign_columns,
    convex_step,
    evolve,
    fbp,
    iterate,
    jitter_correct_rows,
    radon_perturbed,
    sample_uniform_displacement,
    shepp_logan,
)
from dispflow.experiment import _interface_image, _strip_image, load_config  # noqa: E402
from dispflow.grid import distinct_columns  # noqa: E402
from dispflow.tomo import angle_grid  # noqa: E402

N, N_ANGLES, SEED, A = 128, 90, 7, math.pi / 18
LARGE_N, LARGE_ANGLES = 256, 180
STRIP_T_END = 5e-11
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


CONVEX_CHILD = """
import math, resource, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from dispflow import (Axis, EnergyParams, convex_step, radon_perturbed,
                      sample_uniform_displacement, shepp_logan)
from dispflow.tomo import angle_grid
n, n_angles, seed, a = int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]), float(sys.argv[5])
angles = angle_grid(math.pi / n_angles)
pert = sample_uniform_displacement(angles, a, seed)
v = radon_perturbed(shepp_logan(n), angles, None, pert, 0.0, seed).field
params = EnergyParams(axis=Axis.X1, k=1, p=2, q=2, alpha=1e-3, eps=1e-3 * float(np.ptp(v.values)) ** 2)
assert not any(name.startswith("scipy") for name in sys.modules)
t0 = time.perf_counter()
convex_step(v, params)
t = time.perf_counter() - t0
scipy = sum(name.startswith("scipy") for name in sys.modules)
print(t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, scipy)
"""


def cold_start(repeat: int) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(dispflow.__file__)))

    def children(*cmd):
        return [subprocess.run([sys.executable, "-c", *cmd], capture_output=True, text=True,
                               check=True).stdout.split() for _ in range(repeat)]

    runs = children(IMPORT_CHILD, src)
    steps = children(CONVEX_CHILD, src, str(N), str(N_ANGLES), str(SEED), repr(A))
    return {
        "import_ms": round(1e3 * min(float(t) for t, _ in runs), 3),
        "import_rss_mb": round(min(int(kb) for _, kb in runs) / 1024.0, 3),
        "first_convex_step_ms": round(1e3 * min(float(t) for t, _, _ in steps), 3),
        "first_convex_step_rss_mb": round(min(int(kb) for _, kb, _ in steps) / 1024.0, 3),
        "first_convex_step_scipy_modules": max(int(m) for _, _, m in steps),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=5, help="runs per stage (default 5)")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    def tomo_stages(n, n_angles, suffix=""):
        ph = shepp_logan(n)
        angles = angle_grid(math.pi / n_angles)
        pert = sample_uniform_displacement(angles, A, SEED)
        sino = radon_perturbed(ph, angles, None, pert, 0.0, SEED)
        return sino, {
            "radon_perturbed" + suffix: lambda: radon_perturbed(ph, angles, None, pert, 0.0, SEED),
            "fbp" + suffix: lambda: fbp(sino, n),
        }

    sino, stages = tomo_stages(N, N_ANGLES)
    v = sino.field
    angles = angle_grid(math.pi / N_ANGLES)
    pert, sigma = sample_uniform_displacement(angles, A, SEED), 0.01 * float(np.abs(v.values).max())
    noisy = radon_perturbed(shepp_logan(N), angles, None, pert, sigma, SEED).field
    fig5 = load_config(os.path.join(ROOT, "configs", "fig5.cfg"))
    config_paths = sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))
    eps = 1e-3 * float(np.ptp(v.values)) ** 2

    def step(p, q=2):
        return EnergyParams(axis=Axis.X1, k=1, p=p, q=q, alpha=1e-3, eps=eps)

    stages.update({
        "fig5_flow": lambda: evolve(v, fig5.flow, fig5.t_end),
        "convex_step_p2": lambda: convex_step(v, step(2)),
        "convex_step_p1": lambda: convex_step(v, step(1)),
        "iterate_k1p2q2": lambda: iterate(v, step(2), m_max=50, stop_tol=0.0),
        "iterate_k1p2q1": lambda: iterate(v, step(2, q=1), m_max=50, stop_tol=0.0),
        "iterate_k1p2q2_noisy": lambda: iterate(noisy, step(2), m_max=50, stop_tol=0.0),
        "block_assign_columns_M10": lambda: block_assign_columns(v, 10),
        "jitter_correct_rows_M5": lambda: jitter_correct_rows(v, 5),
        "load_configs": lambda: [load_config(path) for path in config_paths],
    })
    for name, image in (("fig2", _strip_image), ("fig3", _interface_image)):
        cfg = load_config(os.path.join(ROOT, "configs", name + ".cfg"))
        f0 = image(cfg)
        stages[name + "_flow"] = lambda cfg=cfg, f0=f0: evolve(f0, cfg.flow, cfg.t_end)
    stages.update(tomo_stages(LARGE_N, LARGE_ANGLES, f"_{LARGE_N}x{LARGE_ANGLES}")[1])

    strip = np.zeros((64, 4))
    strip[29:34] = 1e4  # criterion 3's strip: width 5, centred
    strip = ScalarField(strip, 0.1, 0.1)
    strip_params = FlowParams(axis=Axis.X1, k=2, p=2, q=2)
    strip_steps = evolve(strip, strip_params, STRIP_T_END).steps

    out = {"n": N, "angles": N_ANGLES, "seed": SEED, "repeat": args.repeat, "unit": "ms",
           "distinct_columns": len(distinct_columns(v.values)[0]),
           "noisy_distinct_columns": len(distinct_columns(noisy.values)[0])}
    out.update(cold_start(args.repeat))
    out.update({name: round(best_ms(fn, args.repeat), 3) for name, fn in stages.items()})
    strip_ms = best_ms(lambda: evolve(strip, strip_params, STRIP_T_END), args.repeat)
    out["strip_step_us"] = round(1e3 * strip_ms / strip_steps, 3)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
