"""The benchmark's workloads.

Each workload is built from the checkout root, a seed and an output
directory; building it is the set-up the benchmark times.  operations()
lists the pass as (name, callable) pairs, called through module attributes
so that a traced run sees them; check() verifies the results of one pass
with the references in checks.py.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

import checks
from dispflow import discrete, experiment, varsolve
from dispflow.grid import Axis, ScalarField


def _load(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _displacement(outdir: str) -> np.ndarray:
    """d from displacement.csv; values may be written as np.float64(...)."""
    with open(os.path.join(outdir, "displacement.csv")) as fh:
        rows = fh.read().split()[1:]
    return np.array([float(re.sub(r"^np\.float64\((.*)\)$", r"\1", r.split(",", 1)[1])) for r in rows])


class _Configs:
    """Shipped configs run through run_experiment, one operation each."""

    names: tuple = ()

    def __init__(self, root: str, seed: int, outdir: str):
        self.cfgs = {}
        for name in self.names:
            cfg = experiment.load_config(os.path.join(root, "configs", name + ".cfg"))
            cfg.seed = seed  # only the tomography configs draw from it
            cfg.outdir = os.path.join(outdir, name)
            self.cfgs[name] = cfg

    def operations(self):
        return [
            (name, lambda cfg=cfg: experiment.run_experiment(cfg))
            for name, cfg in self.cfgs.items()
        ]


class TomoConfigs(_Configs):
    names = ("fig1", "fig4", "fig5", "fig5_discrete", "fig6")
    noise_pair = ("fig6", "fig5")  # (noisy, same jitter without noise)

    def check(self, results):
        sinos = {}
        for name in results:
            cfg, d = self.cfgs[name], self.cfgs[name].outdir
            checks.require(cfg.variant == "high-contrast", f"{name}: no reference for {cfg.variant}")
            n_angles = round(math.pi / cfg.angle_step)
            theta = np.arange(n_angles) * cfg.angle_step
            disp = _displacement(d) if cfg.a > 0 or cfg.noise > 0 else 0.0
            offsets = checks.detector_offsets(cfg.n)
            clean_max = float(np.abs(checks.line_integrals(theta, offsets)).max())
            sino = sinos[name] = _load(os.path.join(d, "sinogram.csv"))
            checks.check_sinogram(sino, theta + disp, offsets, cfg.noise * clean_max)

            if cfg.correction == "flow" and (cfg.flow.axis, cfg.flow.k, cfg.flow.p) == (Axis.X1, 1, 2):
                checks.check_max_principle(sino, _load(os.path.join(d, "sinogram_corrected.csv")))
            elif cfg.correction == "assign":
                corrected = _load(os.path.join(d, "sinogram_corrected.csv"))
                checks.check_block_permutation(sino, corrected, cfg.M)

            with open(os.path.join(d, "metrics.csv")) as fh:
                reported = dict(line.strip().split(",") for line in fh.readlines()[1:])
            recon = _load(os.path.join(d, "recon.csv"))
            checks.check_rmse(float(reported["rmse"]), recon, checks.phantom(cfg.n_out))

        noisy, clean = self.noise_pair
        if noisy in sinos and clean in sinos:
            same = [_displacement(self.cfgs[c].outdir) for c in self.noise_pair]
            checks.require(np.array_equal(*same), f"{noisy} and {clean} drew different jitter")
            clean_max = float(np.abs(sinos[clean]).max())
            checks.check_noise(sinos[noisy] - sinos[clean], clean_max, self.cfgs[noisy].noise)


class ImageFlows(_Configs):
    names = ("fig2", "fig3")  # their inputs are fixed by the configs

    def check(self, results):
        for name in results:
            d = self.cfgs[name].outdir
            before = _load(os.path.join(d, "input.csv"))
            after = _load(os.path.join(d, "output.csv"))
            if self.cfgs[name].input == "strip":
                checks.check_strip(before, after)
            else:
                checks.check_interface(before, after)


class SinogramCorrectors:
    """Lagged convex iteration and the discrete heuristics on sinograms made
    from the exact line integrals at jittered angles theta + d,
    d ~ Uniform[0, pi/18) drawn from the seed."""

    A = math.pi / 18
    #: the p=1 input does not follow the seed: the CG iterations of its
    #: inner solves, and so its time, vary tenfold between seeds
    SMALL_SEED = 0

    def __init__(self, root: str, seed: int, outdir: str):
        self.big = self._jittered(np.random.default_rng(seed), 128, 90)
        self.small = self._jittered(np.random.default_rng(self.SMALL_SEED), 48, 32)

        def params(u, p, q):
            rng2 = float(np.ptp(u.values)) ** 2
            return varsolve.EnergyParams(axis=Axis.X1, k=1, p=p, q=q, alpha=1e-3, eps=1e-3 * rng2)

        # criterion-1 settings; p=1 only on the small sinogram, where one
        # step already takes tens of thousands of CG iterations
        self.iterations = {
            "iterate_k1p2q2": (self.big, params(self.big, 2, 2), 50),
            "iterate_k1p2q1": (self.big, params(self.big, 2, 1), 50),
            "iterate_k1p1q2_small": (self.small, params(self.small, 1, 2), 3),
        }

    def _jittered(self, rng, n: int, n_angles: int) -> ScalarField:
        step = math.pi / n_angles
        theta = np.arange(n_angles) * step + rng.uniform(0.0, self.A, n_angles)
        offsets = checks.detector_offsets(n)
        return ScalarField(checks.line_integrals(theta, offsets), step, offsets[1] - offsets[0])

    def operations(self):
        ops = [
            (name, lambda u=u, p=p, m=m: varsolve.iterate(u, p, m_max=m, stop_tol=0.0))
            for name, (u, p, m) in self.iterations.items()
        ]
        ops.append(("jitter_M5", lambda: discrete.jitter_correct_rows(self.big, 5)))
        ops.append(("assign_M10", lambda: discrete.block_assign_columns(self.big, 10)))
        return ops

    def check(self, results):
        for name, (u0, params, m_max) in self.iterations.items():
            if name not in results:
                continue
            u, tr = results[name]
            checks.require(len(tr.fc) == m_max, f"{name}: {len(tr.fc)} of {m_max} iterations")
            checks.check_descent(tr.fc, tr.reg, tr.du_l2, tr.grad_linf, params.eps, params.q)
            checks.check_grad(u.values, u.dx1, tr.grad_linf[-1])
            if params.p == 2:
                # one further step from the returned iterate, outside the pass
                nxt = varsolve.convex_step(u, params)
                checks.check_optimality(u.values, nxt.values, u.dx1, params.alpha, params.eps, params.q)
        if "jitter_M5" in results:
            out, shifts = results["jitter_M5"]
            checks.check_jitter(self.big.values, out.values, shifts.shifts, 5)
        if "assign_M10" in results:
            out, _ = results["assign_M10"]
            checks.check_block_permutation(self.big.values, out.values, 10)


WORKLOADS = {
    "tomo_configs": TomoConfigs,
    "image_flows": ImageFlows,
    "sinogram_correctors": SinogramCorrectors,
}
