"""Each benchmark check passes on the program's real output and fails on an
input made wrong on purpose.

    python3 -m pytest -q perfbench/test_checks.py
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from dispflow import experiment  # noqa: E402
from dispflow.discrete import block_assign_columns, jitter_correct_rows  # noqa: E402
from dispflow.flows import FlowParams, evolve  # noqa: E402
from dispflow.grid import Axis, ScalarField  # noqa: E402
from dispflow.tomo import AngularPerturbation, radon_perturbed, shepp_logan  # noqa: E402
from dispflow.varsolve import EnergyParams, iterate  # noqa: E402

A = math.pi / 18


def jittered(n=48, n_angles=32, seed=3):
    """Exact line integrals at theta + d, as the sinogram_correctors workload makes them."""
    step = math.pi / n_angles
    d = np.random.default_rng(seed).uniform(0.0, A, n_angles)
    offsets = checks.detector_offsets(n)
    values = checks.line_integrals(np.arange(n_angles) * step + d, offsets)
    return ScalarField(values, step, offsets[1] - offsets[0])


def test_sinogram_at_true_angles_passes_and_at_theta_fails():
    theta = np.arange(90) * (math.pi / 90)
    d = np.random.default_rng(5).uniform(0.0, A, 90)
    sino = radon_perturbed(shepp_logan(128), theta, None, AngularPerturbation(d, A)).field.values
    offsets = checks.detector_offsets(128)
    checks.check_sinogram(sino, theta + d, offsets)
    with pytest.raises(checks.CheckFailed, match="line integrals"):
        checks.check_sinogram(sino, theta, offsets)
    with pytest.raises(checks.CheckFailed):
        checks.check_sinogram(sino, theta + A / 2, offsets)


def test_flow_output_outside_raw_range_fails():
    raw = jittered()
    out = evolve(raw, FlowParams(axis=Axis.X1, k=1, p=2, q=1), 6e-3).u.values
    checks.check_max_principle(raw.values, out)
    j = int(np.argmax(raw.values[:, 20]))
    bad = out.copy()
    bad[j, 20] = raw.values[j, 20] + 1e-6
    with pytest.raises(checks.CheckFailed, match="raw column range"):
        checks.check_max_principle(raw.values, bad)


def test_rising_fc_fails():
    u0 = jittered()
    params = EnergyParams(axis=Axis.X1, k=1, p=2, q=2, alpha=1e-3, eps=1e-3 * np.ptp(u0.values) ** 2)
    u, tr = iterate(u0, params, m_max=6, stop_tol=0.0)
    checks.check_descent(tr.fc, tr.reg, tr.du_l2, tr.grad_linf, params.eps, params.q)
    fc = list(tr.fc)
    fc[3] = fc[2] + 1e-6
    with pytest.raises(checks.CheckFailed, match="Fc rose"):
        checks.check_descent(fc, tr.reg, tr.du_l2, tr.grad_linf, params.eps, params.q)


def test_truncated_evolve_fails_in_the_traced_run():
    f0 = jittered()
    params = FlowParams(axis=Axis.X1, k=1, p=2, q=2)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        experiment.evolve(f0, params, 1e-3)
    checks.check_flows_reached(tracer.flows)
    tracer.reset()
    with tracing.install(tracer):
        experiment.evolve(f0, params, 1e-3, max_steps=2)
    assert tracer.summary()["flows.t_reached_frac"] < 1.0
    with pytest.raises(checks.CheckFailed, match="evolve stopped"):
        checks.check_flows_reached(tracer.flows)
    assert experiment.evolve is evolve  # install() restored the original


def test_block_reordering_across_blocks_fails():
    raw = jittered().values
    out = block_assign_columns(ScalarField(raw), 10)[0].values
    checks.check_block_permutation(raw, out, 10)
    bad = out.copy()
    bad[[9, 10]] = bad[[10, 9]]
    with pytest.raises(checks.CheckFailed, match="permutation"):
        checks.check_block_permutation(raw, bad, 10)


def test_jitter_with_a_wrong_shift_fails():
    raw = jittered()
    out, shifts = jitter_correct_rows(raw, 5)
    checks.check_jitter(raw.values, out.values, shifts.shifts, 5)
    wrong = shifts.shifts.copy()
    j = raw.n2 // 2  # a line through the phantom, not zero throughout
    wrong[j] += 1 if wrong[j] < 5 else -1
    with pytest.raises(checks.CheckFailed, match=f"line {j} "):
        checks.check_jitter(raw.values, out.values, wrong, 5)


def test_rmse_mismatch_and_wrong_noise_fail():
    ref = checks.phantom(32)
    recon = ref + 0.01
    checks.check_rmse(0.01, recon, ref)
    with pytest.raises(checks.CheckFailed):
        checks.check_rmse(0.0101, recon, ref)
    noise = np.random.default_rng(0).normal(0.0, 0.02, 20000)
    checks.check_noise(noise, 2.0, 0.01)
    with pytest.raises(checks.CheckFailed, match="std"):
        checks.check_noise(noise, 2.0, 0.012)
