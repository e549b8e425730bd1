"""End-to-end acceptance checks for the displacement-correction pipeline.

Each test prints a single PASS/FAIL line so the whole gate can be read off
the pytest -s output. Thresholds marked "golden" were frozen from the first
oracle run and guard against regressions rather than defining correctness.
Thresholds marked "derived" are set by an argument about the perturbation
model, stated in a comment beside the assertion; the paper gives no number
for them (criterion 6).

The jitter d ~ Uniform[0, a] rotates every angle by a/2 on average. A
sinogram cannot tell that common rotation from a rotated phantom, so no
sinogram-only correction can remove it; criterion 7 therefore scores every
reconstruction in the frame theta + a/2, where only the identifiable,
zero-mean part of the jitter remains.
"""

import math

import numpy as np
import pytest

from dispflow.flows import FlowParams, evolve, flow_rhs, stable_dt
from dispflow.grid import Axis, ScalarField, diff, diff_matrix, norm_l2
from dispflow.metrics import interface_variance, metrics, strip_fwhm
from dispflow.tomo import (
    AngularPerturbation,
    Sinogram,
    angle_grid,
    fbp,
    radon,
    radon_perturbed,
    sample_uniform_displacement,
    shepp_logan,
)
from dispflow.varsolve import EnergyParams, convex_step, fc_energy, iterate
from dispflow.discrete import jitter_correct_rows, shift_line, block_assign_columns


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


# ---------------------------------------------------------------- helpers


def tomo_setup():
    """128 x 128 phantom and 90 evenly spaced angles in [0, pi)."""
    return shepp_logan(128, "high-contrast"), angle_grid(math.pi / 90)


def perturbed_sinogram(ph, angles, a, seed=7, noise_sigma=0.0):
    pert = sample_uniform_displacement(angles, a, seed)
    return radon_perturbed(ph, angles, None, pert, noise_sigma, seed)


def recon_rmse(sino: Sinogram, ph: ScalarField, backproject_angles=None) -> float:
    return metrics(fbp(sino, ph.n1, backproject_angles=backproject_angles), ph).rmse


def strip_image(amplitude=10000.0, n1=64, n2=4, width=5, dx1=0.1):
    v = np.zeros((n1, n2))
    lo = (n1 - width) // 2
    v[lo : lo + width, :] = amplitude
    return ScalarField(v, dx1, dx1)


def curved_interface(n1=32, n2=12):
    i1 = np.arange(n1)[:, None]
    x2 = np.arange(n2)[None, :]
    s = 0.5 * n1 + 0.12 * n1 * np.sin(2 * math.pi * x2 / (n2 - 1))
    v = np.clip((i1 - s) / 4.0 + 0.5, 0.0, 1.0)
    return ScalarField(v, 1.0, 1.0)


# ---------------------------------------------------------------- criteria


def test_criterion_1_lagged_iteration_monotonicity():
    sino = perturbed_sinogram(*tomo_setup(), a=math.pi / 18)
    u0 = sino.field
    rng2 = (float(u0.values.max()) - float(u0.values.min())) ** 2
    params = EnergyParams(
        axis=Axis.X1, k=1, p=2, q=2, alpha=1e-3, eps=1e-3 * rng2
    )
    _, tr = iterate(u0, params, m_max=50, stop_tol=0.0)
    fc, reg = np.array(tr.fc), np.array(tr.reg)
    rel_fc = float(np.max((fc[1:] - fc[:-1]) / np.maximum(np.abs(fc[:-1]), 1.0)))
    rel_r = float(np.max((reg[1:] - reg[:-1]) / np.maximum(np.abs(reg[:-1]), 1.0)))
    C = max(tr.grad_linf)
    bound = 1.0 / (2.0 * (C * C + params.eps))
    slack = max(
        bound * tr.du_l2[i + 1] ** 2 - (fc[i] - fc[i + 1]) for i in range(len(fc) - 1)
    )
    ok = rel_fc <= 1e-9 and rel_r <= 1e-9 and slack <= 1e-9 * max(abs(fc[0]), 1.0)
    assert report(
        1,
        ok,
        f"50 iterations: max relative Fc rise {rel_fc:.2e}, R rise {rel_r:.2e}, "
        f"descent-inequality slack {slack:.2e}",
    )


def test_criterion_2_affine_equilibrium():
    # n kept moderate: the stationary rhs is pure rounding noise amplified
    # by 1/dx^2, so the 1e-12 absolute bound scales with grid size
    rng = np.random.default_rng(11)
    n = 16
    c1, c2 = rng.normal(size=(2, n))
    x1 = (np.arange(n) + 0.5) / n
    u0 = ScalarField(x1[:, None] * c1[None, :] + c2[None, :])
    params = FlowParams(axis=Axis.X1, k=1, p=2, q=2)
    interior = float(np.abs(flow_rhs(u0, params).values[1:-1, :]).max())
    dt = stable_dt(u0, params)
    state = evolve(u0, params, t_end=1000 * dt)
    drift = float(np.abs(state.u.values - u0.values).max())
    ok = interior <= 1e-12 and drift <= 1e-8 and state.steps >= 1000
    assert report(
        2,
        ok,
        f"interior rhs max {interior:.2e}, L-inf drift after {state.steps} "
        f"steps {drift:.2e}",
    )


def test_criterion_3_strip_width_growth():
    # amplitude chosen large enough that the degenerate mobility |d1 u|^q
    # actually moves the profile within t_end = 1e-6 (rhs scales like A^2)
    f0 = strip_image()
    w0 = float(np.nanmean(strip_fwhm(f0)[1:-1]))
    growth = {}
    for k, p in ((1, 1), (1, 2), (2, 2), (2, 1)):
        params = FlowParams(
            axis=Axis.X1, k=k, p=p, q=2, beta=(1e-2 if p == 1 else 1e-6)
        )
        state = evolve(f0, params, t_end=1e-6, max_steps=2_000_000)
        growth[(k, p)] = float(np.nanmean(strip_fwhm(state.u)[1:-1])) - w0
    ok = growth[(1, 1)] < 0.5 and all(
        growth[v] >= 1.0 for v in ((1, 2), (2, 2), (2, 1))
    )
    detail = ", ".join(f"(k={k},p={p}) {g:+.2f}px" for (k, p), g in growth.items())
    assert report(3, ok, f"FWHM growth {detail}")


def test_criterion_4_interface_straightening():
    f0 = curved_interface()
    var0 = interface_variance(f0)
    ratios = {}
    for k, p in ((1, 1), (1, 2), (2, 2), (2, 1)):
        params = FlowParams(
            axis=Axis.X2,
            k=k,
            p=p,
            q=2,
            beta=(0.1 if p == 1 else 1e-6),
            cfl=(0.8 if p == 1 else 0.5),
        )
        r0 = float(np.abs(flow_rhs(f0, params).values).max())
        state = evolve(
            f0, params, t_end=np.inf, stop_residual=1e-6 * r0, max_steps=800_000
        )
        var1 = interface_variance(state.u)
        ratios[(k, p)] = var0 / max(var1, 1e-300)
    ok = all(r >= 10.0 for r in ratios.values())
    detail = ", ".join(f"(k={k},p={p}) {r:.1e}x" for (k, p), r in ratios.items())
    assert report(4, ok, f"interface-position variance reduction {detail}")


def test_criterion_5_tomography_round_trip():
    ph = shepp_logan(128, "high-contrast")
    err = {}
    for n_angles in (90, 180):
        angles = angle_grid(math.pi / n_angles)
        err[n_angles] = metrics(fbp(radon(ph, angles), 128), ph).rel_l2
    # golden: 0.2325 (90 angles) and 0.2245 (180 angles) at first oracle run
    ok = err[90] <= 0.25 and err[180] < err[90]
    assert report(
        5, ok, f"relative L2 error {err[90]:.4f} (90 angles), {err[180]:.4f} (180)"
    )


def test_criterion_6_small_perturbations_are_milder():
    ph, angles = tomo_setup()
    base = recon_rmse(radon(ph, angles), ph)
    a_small, a_large = math.pi / 30, math.pi / 18
    # derived, not from the paper. With b the unperturbed RMSE, the perturbed
    # reconstruction has MSE ~ b^2 + e(a)^2. The jitter's mean a/2 rotates the
    # image; a piecewise-constant phantom rotated by phi differs from itself
    # on bands of width ~ phi along its edges, so e^2 grows like a^m with
    # m >= 1 (m = 1 for sharp edges, m = 2 once the shift is below the edge
    # blur). Hence e(a_small) / e(a_large) = r^(m/2) <= sqrt(r), where
    # r = a_small / a_large. Since excess = sqrt(b^2 + e^2) - b and
    # excess / e = e / (sqrt(b^2 + e^2) + b) rises with e, the excess ratio
    # lies between the e^2 ratio r^m and the e ratio r^(m/2): it is below
    # sqrt(r) ~ 0.775, and for m = 1 it is at least r = 0.6, so a target of
    # 0.5 would need m >= log(0.5) / log(0.6) ~ 1.36.
    bound = math.sqrt(a_small / a_large)
    excess = {}
    for seed in (1, 2, 3, 7, 11):
        excess[seed] = [
            recon_rmse(perturbed_sinogram(ph, angles, a, seed), ph) - base
            for a in (a_small, a_large)
        ]
    ok = all(0 < small < bound * large for small, large in excess.values())
    detail = ", ".join(
        f"seed {seed} {small / large if large else math.nan:.3f}"
        for seed, (small, large) in excess.items()
    )
    assert report(
        6,
        ok,
        f"RMSE excess over unperturbed baseline, a=pi/30 as a fraction of "
        f"a=pi/18: {detail} (derived bound: 0 < excess, ratio < "
        f"sqrt((pi/30)/(pi/18)) = {bound:.3f})",
    )


def test_criterion_7_flow_correction_efficacy():
    ph, angles = tomo_setup()
    a = math.pi / 18
    # the identifiable frame: backproject at the mean jitter theta + a/2
    frame = angles + a / 2
    sino = perturbed_sinogram(ph, angles, a)
    rmse_raw = recon_rmse(sino, ph, frame)
    # what a perfect de-jittering yields: every row measured at theta + a/2
    dejittered = radon_perturbed(
        ph, angles, None, AngularPerturbation(np.full(len(angles), a / 2), a)
    )
    reference_cut = 1.0 - recon_rmse(dejittered, ph, frame) / rmse_raw

    flow_params = FlowParams(axis=Axis.X1, k=1, p=2, q=1)
    corrected = evolve(sino.field, flow_params, t_end=6e-3).u
    rmse_flow = recon_rmse(sino.with_field(corrected), ph, frame)
    block, _ = block_assign_columns(sino.field, M=10, k=1)
    rmse_block = recon_rmse(sino.with_field(block), ph, frame)
    reduction = 1.0 - rmse_flow / rmse_raw

    sigma = 0.01 * float(np.abs(radon(ph, angles).field.values).max())
    noisy = perturbed_sinogram(ph, angles, a, noise_sigma=sigma)
    rmse_noisy_raw = recon_rmse(noisy, ph, frame)
    corrected_noisy = evolve(noisy.field, flow_params, t_end=6e-3).u
    rmse_noisy_flow = recon_rmse(noisy.with_field(corrected_noisy), ph, frame)

    checks = [
        (
            reference_cut >= 0.20,
            f"de-jittered reference cuts RMSE by {100 * reference_cut:.1f}% "
            f"(frame admits the 20% target)",
        ),
        (
            reduction >= 0.20,
            f"flow cuts RMSE {rmse_raw:.4f} -> {rmse_flow:.4f}, "
            f"{100 * reduction:.1f}% (target >= 20%)",
        ),
        (
            rmse_flow < rmse_block,
            f"flow {rmse_flow:.4f} vs block-reorder {rmse_block:.4f}",
        ),
        (
            rmse_noisy_flow < rmse_noisy_raw,
            f"with 1% noise {rmse_noisy_raw:.4f} -> {rmse_noisy_flow:.4f}",
        ),
    ]
    detail = "; ".join(f"{text} [{'ok' if ok else 'FAIL'}]" for ok, text in checks)
    assert report(7, all(ok for ok, _ in checks), f"frame theta + a/2: {detail}")


def test_criterion_8_jitter_shift_recovery():
    M, n1, n2 = 5, 48, 24
    fails = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        base = np.convolve(rng.standard_normal(n1), np.ones(7) / 7, mode="same")
        base += np.arange(n1) / n1
        base[: 2 * M] = base[2 * M]
        base[-2 * M :] = base[-2 * M - 1]
        mod = 1.0 + 0.05 * np.sin(2 * math.pi * np.arange(n2) / n2)
        img = base[:, None] * mod[None, :]
        d = rng.integers(0, M + 1, size=n2)
        jit = np.stack(
            [shift_line(img[:, j], int(d[j])) for j in range(n2)], axis=1
        )
        out, rec = jitter_correct_rows(ScalarField(jit, 1.0, 1.0), M=M)
        ref = np.stack(
            [shift_line(img[:, j], int(d[0])) for j in range(n2)], axis=1
        )
        if not (
            np.array_equal(rec.shifts + d, np.full(n2, d[0]))
            and np.array_equal(out.values, ref)
        ):
            fails += 1
    ok = fails == 0
    assert report(
        8, ok, f"{20 - fails}/20 images recovered exactly up to a global shift"
    )


def test_criterion_9_radon_chord_length_oracle():
    n, r, ss = 256, 0.6, 8
    # supersampled indicator of the centered disk of radius r
    m = n * ss
    c = (np.arange(m) + 0.5) * (2.0 / m) - 1.0
    fine = ((c[:, None] ** 2 + c[None, :] ** 2) <= r * r).astype(float)
    disk = ScalarField(
        fine.reshape(n, ss, n, ss).mean(axis=(1, 3)), 2.0 / n, 2.0 / n
    )
    angles = angle_grid(math.pi / 90)
    sino = radon(disk, angles)
    l = sino.offsets
    # tangent rays see an O(sqrt(h)) geometric error, so the 1%-of-diameter
    # bound applies away from the rim: |l| <= r - 2h
    inner = np.abs(l) <= r - 2 * disk.dx1
    exact = 2.0 * np.sqrt(np.maximum(r * r - l[inner] ** 2, 0.0))
    err = float(np.abs(sino.field.values[:, inner] - exact[None, :]).max())
    ok = err <= 0.01 * 2 * r
    assert report(
        9, ok, f"max chord-length error {err:.4f} (bound {0.01 * 2 * r:.4f}) "
        f"over 90 angles"
    )


def test_criterion_10_semi_implicit_optimality():
    rng = np.random.default_rng(13)
    u_prev = ScalarField(rng.standard_normal((32, 32)), 1.0, 1.0)
    worst = 0.0
    for q in (1, 2):
        params = EnergyParams(axis=Axis.X1, k=1, p=2, q=q, alpha=1e-3)
        u = convex_step(u_prev, params)
        D = diff_matrix(32, u_prev.dx1, 1)
        g = diff(u_prev, Axis.X1, 1).values
        w = (np.abs(g) if q == 1 else g**2) + params.eps
        res = (u.values - u_prev.values) / params.alpha + w * (D.T @ D @ u.values)
        worst = max(worst, float(np.linalg.norm(res)))
    ok = worst <= 1e-6
    assert report(10, ok, f"optimality-residual L2 norm {worst:.2e} (bound 1e-6)")
