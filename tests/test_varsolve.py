import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solveh_banded

from dispflow.grid import Axis, ScalarField, diff, diff_matrix, norm_l2
from dispflow.tomo import radon_perturbed, sample_uniform_displacement, shepp_logan
from dispflow.varsolve import (
    EnergyParams,
    IterTrace,
    SolverError,
    convex_step,
    energy_D1,
    energy_D2,
    energy_R,
    fc_energy,
    iterate,
)


def bumpy_field(seed: int, n: int = 16, rough: float = 0.3) -> ScalarField:
    rng = np.random.default_rng(seed)
    i = np.arange(n) / n
    base = np.outer(np.sin(2 * np.pi * i), np.ones(n))
    return ScalarField(base + rough * rng.standard_normal((n, n)))


class TestEnergyParams:
    def test_rejects_bad_values(self):
        with pytest.raises(SolverError):
            EnergyParams(axis=Axis.X1, k=3)
        with pytest.raises(SolverError):
            EnergyParams(axis=Axis.X1, alpha=0.0)
        with pytest.raises(SolverError):
            EnergyParams(axis=Axis.X1, eps=-1.0)
        with pytest.raises(SolverError):
            EnergyParams(axis=Axis.X1, p=1, beta=0.0)


class TestEnergies:
    def test_R_zero_for_affine(self):
        n = 16
        x1 = (np.arange(n) + 0.5)[:, None] / n
        f = ScalarField(np.broadcast_to(3 * x1 - 1, (n, n)).copy())
        assert energy_R(f, Axis.X1, 2, 2) == pytest.approx(0.0, abs=1e-16)

    def test_R_quadratic_oracle(self):
        # f = x1^2 on the unit square: (1/2) integral (2x1)^2 = 2/3... but
        # the discrete sum uses midpoint samples of the exact derivative
        n = 64
        x1 = ((np.arange(n) + 0.5) / n)[:, None]
        f = ScalarField(np.broadcast_to(x1 * x1, (n, n)).copy())
        val = energy_R(f, Axis.X1, 1, 2)
        assert val == pytest.approx(2.0 / 3.0, rel=1e-3)

    def test_data_terms_vanish_at_reference(self):
        f = bumpy_field(0)
        assert energy_D2(f, f, 1e-3) == 0.0
        assert energy_D1(f, f, 1e-3) == 0.0

    def test_data_terms_positive_and_eps_monotone(self):
        f = bumpy_field(1)
        g = f.with_values(f.values + 0.1)
        assert energy_D2(g, f, 1e-3) > 0
        # larger eps -> larger denominator -> smaller data term
        assert energy_D2(g, f, 1e-1) < energy_D2(g, f, 1e-3)

    def test_fc_at_fixed_point_equals_alpha_R(self):
        f = bumpy_field(2)
        params = EnergyParams(axis=Axis.X1, k=1, p=2, q=2, alpha=0.7)
        expected = 0.7 * energy_R(f, Axis.X1, 1, 2)
        assert fc_energy(f, f, params) == pytest.approx(expected)

    def test_shape_mismatch_rejected(self):
        a = ScalarField(np.zeros((8, 8)))
        b = ScalarField(np.zeros((8, 9)))
        with pytest.raises(SolverError):
            energy_D2(a, b, 1e-3)


class TestConvexStep:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("q", [1, 2])
    def test_semi_implicit_identity_p2(self, k, q):
        # the minimizer satisfies (u - u_prev)/alpha + w * D^T D u = 0
        # in the adjoint-form discretization used by the solver
        u_prev = bumpy_field(3, n=12)
        params = EnergyParams(axis=Axis.X1, k=k, p=2, q=q, alpha=1e-3)
        u = convex_step(u_prev, params)
        D = diff_matrix(12, u_prev.dx1, k)
        w = (
            diff(u_prev, Axis.X1, 1).values ** 2 + params.eps
            if q == 2
            else np.abs(diff(u_prev, Axis.X1, 1).values) + params.eps
        )
        res = (u.values - u_prev.values) / params.alpha + w * (D.T @ D @ u.values)
        scale = np.abs(D.T @ D @ u.values).max() * np.abs(w).max()
        assert np.abs(res).max() <= 1e-8 * max(scale, 1.0)

    @pytest.mark.parametrize("axis", list(Axis), ids=lambda a: a.name)
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("q", [1, 2])
    def test_matches_dense_solve(self, axis, k, q):
        # non-square grid with dx1 != dx2, so a wrong line length, spacing
        # or band layout along either axis shows
        rng = np.random.default_rng(4)
        i = np.arange(10) / 10
        base = np.outer(np.sin(2 * np.pi * i), np.ones(13))
        u_prev = ScalarField(base + 0.3 * rng.standard_normal((10, 13)), 0.1, 0.07)
        params = EnergyParams(axis=axis, k=k, p=2, q=q, alpha=1e-3)
        u = convex_step(u_prev, params)
        g1 = diff(u_prev, Axis.X1, 1).values
        w = g1 * g1 + params.eps if q == 2 else np.abs(g1) + params.eps
        # one line along the axis per row
        v, out, w = (a.T if axis == Axis.X1 else a for a in (u_prev.values, u.values, w))
        D = diff_matrix(v.shape[1], u_prev.spacing(axis), k)
        for j in range(v.shape[0]):
            A = np.diag(1.0 / w[j]) + params.alpha * (D.T @ D)
            ref = np.linalg.solve(A, v[j] / w[j])
            assert np.allclose(out[j], ref, atol=1e-8)

    def test_p1_runs_and_reduces_fc(self):
        u_prev = bumpy_field(5, n=12)
        params = EnergyParams(axis=Axis.X1, k=1, p=1, q=2, alpha=1e-3, beta=1e-3)
        u = convex_step(u_prev, params)
        assert fc_energy(u, u_prev, params) <= fc_energy(u_prev, u_prev, params)

    def test_p1_step_on_jittered_sinogram(self):
        # the fig5 sinogram: 128-pixel phantom, 90 angles, jitter a = pi/18
        angles = np.arange(90) * math.pi / 90
        pert = sample_uniform_displacement(angles, math.pi / 18, 7)
        v = radon_perturbed(shepp_logan(128), angles, None, pert, 0.0, 7).field
        eps = 1e-3 * float(np.ptp(v.values)) ** 2
        params = EnergyParams(axis=Axis.X1, k=1, p=1, q=2, alpha=1e-3, eps=eps)
        u = convex_step(v, params)
        assert fc_energy(u, v, params) < fc_energy(v, v, params)


class TestIterate:
    def test_monotone_decrease_of_fc_and_R(self):
        u0 = bumpy_field(6)
        params = EnergyParams(axis=Axis.X1, k=1, p=2, q=2, alpha=1e-3)
        _, trace = iterate(u0, params, m_max=20)
        assert trace.warnings == []
        assert all(b <= a + 1e-12 for a, b in zip(trace.fc, trace.fc[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(trace.reg, trace.reg[1:]))

    def test_descent_inequality(self):
        # (1/(2(C^2+eps))) ||u_m - u_{m-1}||^2 <= Fc(m) - Fc(m+1)
        u0 = bumpy_field(7)
        params = EnergyParams(axis=Axis.X1, k=1, p=2, q=2, alpha=1e-3)
        _, trace = iterate(u0, params, m_max=15)
        C = max(trace.grad_linf)
        bound = 1.0 / (2.0 * (C * C + params.eps))
        for i in range(len(trace.fc) - 1):
            drop = trace.fc[i] - trace.fc[i + 1]
            assert bound * trace.du_l2[i + 1] ** 2 <= drop + 1e-12

    def test_stop_tol_halts(self):
        u0 = bumpy_field(8)
        params = EnergyParams(axis=Axis.X1, k=1, p=2, q=2, alpha=1e-6)
        _, trace = iterate(u0, params, m_max=100, stop_tol=1e-3 * norm_l2(u0))
        assert len(trace.m) < 100

    def test_converged_says_why_it_stopped(self):
        u0 = bumpy_field(8)
        params = EnergyParams(axis=Axis.X1, k=1, p=2, q=2, alpha=1e-6)
        stop_tol = 1e-3 * norm_l2(u0)
        _, early = iterate(u0, params, m_max=100, stop_tol=stop_tol)
        assert early.converged and early.du_l2[-1] <= stop_tol
        # stopping on stop_tol at the last allowed iteration still counts
        _, last = iterate(u0, params, m_max=len(early.m), stop_tol=stop_tol)
        assert last.converged
        _, short = iterate(u0, params, m_max=len(early.m) - 1, stop_tol=stop_tol)
        assert not short.converged and short.du_l2[-1] > stop_tol
        assert short.to_csv() == last.to_csv().rsplit("\n", 2)[0] + "\n"
        assert short.warnings == []

    def test_bad_m_max(self):
        with pytest.raises(SolverError):
            iterate(bumpy_field(9), EnergyParams(axis=Axis.X1), m_max=0)

    @given(st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_fc_monotone_on_random_inputs(self, seed):
        u0 = bumpy_field(seed, n=10)
        params = EnergyParams(axis=Axis.X1, k=1, p=2, q=2, alpha=1e-4)
        _, trace = iterate(u0, params, m_max=8)
        assert trace.warnings == []


class TestIterTrace:
    def test_csv_header_and_rows(self):
        tr = IterTrace()
        tr.append(1, 2.0, 1.5, 0.1, 3.0)
        tr.append(2, 1.9, 1.4, 0.05, 2.9)
        text = tr.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "m,Fc,R,du_l2,grad_linf"
        assert len(lines) == 3
        assert lines[1].startswith("1,2")

    def test_violation_recorded(self):
        tr = IterTrace()
        tr.append(1, 1.0, 1.0, 0.1, 1.0)
        tr.append(2, 2.0, 0.9, 0.1, 1.0)
        assert len(tr.warnings) == 1


def _ref_convex_step(u_prev, params):
    """The convex step as one upper-form banded Cholesky solve."""
    along_x1 = params.axis == Axis.X1
    g1 = diff(u_prev, Axis.X1, 1).values
    w = g1 * g1 + params.eps if params.q == 2 else np.abs(g1) + params.eps
    v, w = (a.T if along_x1 else a for a in (u_prev.values, w))
    lines, n = v.shape
    D = diff_matrix(n, u_prev.spacing(params.axis), params.k)
    band = params.k + 1
    rhs = (v / w).ravel()

    def solve(mob):
        ab = np.zeros((band + 1, lines, n))
        for s in range(band + 1):
            ab[band - s, :, s:] = params.alpha * (mob @ (D[:, : n - s] * D[:, s:]))
        ab[band] += 1.0 / w
        return solveh_banded(ab.reshape(band + 1, -1), rhs).reshape(lines, n)

    if params.p == 2:
        out = solve(np.ones(n))
    else:
        out = v
        for _ in range(200):
            g = out @ D.T
            new = solve(1.0 / np.sqrt(g * g + params.beta**2))
            rel = np.linalg.norm(new - out) / max(np.linalg.norm(out), 1e-300)
            out = new
            if rel <= 1e-6:
                break
    return u_prev.with_values(out.T if along_x1 else out)


def _ref_iterate(u0, params, m_max, stop_tol):
    """The lagged iteration with every quantity recomputed from its field:
    five differences per iteration."""
    cell = u0.dx1 * u0.dx2

    def reg(u):
        g = diff(u, params.axis, params.k).values
        integrand = 0.5 * g * g if params.p == 2 else np.sqrt(g * g + params.beta**2)
        return float(cell * np.sum(integrand))

    trace = IterTrace()
    u_prev = u0
    for m in range(1, m_max + 1):
        u = _ref_convex_step(u_prev, params)
        r = u.values - u_prev.values
        du = float(np.sqrt(cell * np.sum(r**2)))
        g1 = diff(u_prev, Axis.X1, 1).values
        w = g1 * g1 + params.eps if params.q == 2 else np.abs(g1) + params.eps
        fc = 0.5 * cell * np.sum(r * r / w) + params.alpha * reg(u)
        trace.append(m, fc, reg(u), du, float(np.abs(diff(u, Axis.X1, 1).values).max()))
        u_prev = u
        if du <= stop_tol:
            break
    return u_prev, trace


class TestIterateReference:
    """iterate agrees with the recomputing iteration to rounding."""

    @pytest.mark.parametrize("axis", list(Axis), ids=lambda a: a.name)
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("stop", [0.0, 0.01])
    def test_iterates_and_trace_agree(self, axis, k, p, q, stop):
        # non-square grid with dx1 != dx2; stop (times ||u0||) ends some runs early
        rng = np.random.default_rng(10 * k + 4 * p + 2 * q + int(axis))
        base = np.sin(np.linspace(0.0, 3.0, 17))[:, None] * np.ones(14)
        u0 = ScalarField(base + 0.3 * rng.standard_normal((17, 14)), 0.1, 0.07)
        params = EnergyParams(axis=axis, k=k, p=p, q=q, alpha=1e-4, eps=1e-2, beta=1.0)
        stop_tol = stop * norm_l2(u0)
        u, trace = iterate(u0, params, m_max=6, stop_tol=stop_tol)
        ref_u, ref = _ref_iterate(u0, params, 6, stop_tol)
        scale = np.abs(ref_u.values).max()
        assert np.abs(u.values - ref_u.values).max() <= 1e-12 * scale
        assert trace.m == ref.m and trace.warnings == ref.warnings
        assert trace.converged == (ref.du_l2[-1] <= stop_tol)
        for col in ("fc", "reg", "du_l2", "grad_linf"):
            assert np.allclose(getattr(trace, col), getattr(ref, col), rtol=1e-12, atol=0.0), col
