"""Non-convex displacement-correction energies and the lagged convex iteration.

The non-convex objective couples a data term whose denominator involves the
x1-derivative of the unknown with a roughness penalty

    R_{i,k,p}(u) = (1/p) * integral (d_i^k u)^p.

Minimization proceeds through a sequence of strictly convex problems in
which the data-term denominator is frozen at the previous iterate:

    Fc(u; v) = (1/2) * integral (u - v)^2 / w(v) + alpha * R_{i,k,p}(u),
    w(v) = (d1 v)^2 + eps   (q=2)   or   |d1 v| + eps   (q=1).

Both Fc(u_m, u_{m-1}) and R(u_m) decrease monotonically along the iteration.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .grid import Axis, ScalarField, diff, diff_matrix, norm_l2, norm_linf

#: relative slack allowed on the monotonicity checks (solver tolerance)
MONOTONE_SLACK = 1e-9
#: p=1 inner fixed point: stop at this relative change, fail after INNER_MAX
INNER_TOL = 1e-6
INNER_MAX = 200


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class EnergyParams:
    axis: Axis = Axis.X1
    k: int = 1
    p: int = 2
    q: int = 2          # selects the frozen denominator: 2 -> squared, 1 -> abs
    alpha: float = 1.0
    eps: float = 1e-3
    beta: float = 1e-6  # smoothing of |s| for p=1

    def __post_init__(self):
        if self.k not in (1, 2) or self.p not in (1, 2) or self.q not in (1, 2):
            raise SolverError("k, p, q must each be 1 or 2")
        if self.alpha <= 0 or self.eps <= 0:
            raise SolverError("alpha and eps must be positive")
        if self.p == 1 and self.beta <= 0:
            raise SolverError("beta must be positive when p=1")


@dataclass
class IterTrace:
    """Per-iteration record of the Theorem-style monitored quantities."""

    m: list = field(default_factory=list)
    fc: list = field(default_factory=list)        # Fc(u_m, u_{m-1})
    reg: list = field(default_factory=list)       # R(u_m)
    du_l2: list = field(default_factory=list)     # ||u_m - u_{m-1}||_L2
    grad_linf: list = field(default_factory=list)  # ||d1 u_m||_inf
    warnings: list = field(default_factory=list)
    converged: bool = False  # iterate stopped on du <= stop_tol, not at m_max

    def append(self, m, fc, reg, du, gl):
        self.m.append(m)
        self.fc.append(fc)
        self.reg.append(reg)
        self.du_l2.append(du)
        self.grad_linf.append(gl)
        for name, col in (("Fc", self.fc), ("R", self.reg)):
            if len(col) >= 2:
                prev, cur = col[-2], col[-1]
                if cur > prev + MONOTONE_SLACK * max(abs(prev), 1.0):
                    self.warnings.append(
                        f"iteration {m}: {name} increased {prev:.12g} -> {cur:.12g}"
                    )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("m,Fc,R,du_l2,grad_linf\n")
        for row in zip(self.m, self.fc, self.reg, self.du_l2, self.grad_linf):
            buf.write("%d,%.17g,%.17g,%.17g,%.17g\n" % row)
        return buf.getvalue()


def _check_same_shape(a: ScalarField, b: ScalarField):
    if a.shape != b.shape:
        raise SolverError(f"shape mismatch: {a.shape} vs {b.shape}")


def _roughness(g: np.ndarray, u: ScalarField, p: int, beta: float) -> float:
    # (1/p) * integral of g^p, g = d_i^k u; p=1 smooths |g| by beta
    if p == 2:
        integrand = 0.5 * g * g
    else:
        integrand = np.sqrt(g * g + beta * beta)
    return float(u.dx1 * u.dx2 * np.sum(integrand))


def energy_R(u: ScalarField, axis: Axis, k: int, p: int, beta: float = 1e-6) -> float:
    """Roughness penalty (1/p) * integral (d_i^k u)^p.

    For p=1 the integrand is the beta-smoothed absolute value, matching the
    quotient used by the flows and the p=1 convex step.
    """
    return _roughness(diff(u, axis, k).values, u, p, beta)


def _d1(u: ScalarField) -> np.ndarray:
    return diff(u, Axis.X1, 1).values


def _weight(g1: np.ndarray, q: int, eps: float) -> np.ndarray:
    # frozen denominator w from g1 = d1 of the reference field
    return g1 * g1 + eps if q == 2 else np.abs(g1) + eps


def _data_term(u: ScalarField, u_ref: ScalarField, w: np.ndarray) -> float:
    r = u.values - u_ref.values
    return float(0.5 * u.dx1 * u.dx2 * np.sum(r * r / w))


def energy_D2(u: ScalarField, u_ref: ScalarField, eps: float) -> float:
    """(1/2) * integral (u - u_ref)^2 / ((d1 u)^2 + eps)."""
    _check_same_shape(u, u_ref)
    return _data_term(u, u_ref, _weight(_d1(u), 2, eps))


def energy_D1(u: ScalarField, u_ref: ScalarField, eps: float) -> float:
    """(1/2) * integral (u - u_ref)^2 / (|d1 u| + eps)."""
    _check_same_shape(u, u_ref)
    return _data_term(u, u_ref, _weight(_d1(u), 1, eps))


def fc_energy(u: ScalarField, u_prev: ScalarField, params: EnergyParams) -> float:
    """Convex surrogate Fc(u; u_prev) with the denominator frozen at u_prev."""
    _check_same_shape(u, u_prev)
    w = _weight(_d1(u_prev), params.q, params.eps)
    return _data_term(u, u_prev, w) + params.alpha * energy_R(
        u, params.axis, params.k, params.p, params.beta
    )


def convex_step(u_prev: ScalarField, params: EnergyParams) -> ScalarField:
    """Minimizer of the strictly convex surrogate Fc(. ; u_prev).

    Each line along params.axis solves (1/w) u + alpha * D^T diag(mob) D u
    = u_prev / w, with D = diff_matrix and mob = 1 for p=2 (the lagged
    diffusivity of the inner fixed point for p=1).  The lines, laid end to
    end, form one SPD matrix of half-bandwidth k+1 with no entry coupling
    two lines, factored by a single banded Cholesky solve.
    """
    # imported here so that the package and every other pipeline load without scipy
    from scipy.linalg import solveh_banded

    along_x1 = params.axis == Axis.X1
    v = u_prev.values.T if along_x1 else u_prev.values  # one line per row
    w = _weight(_d1(u_prev), params.q, params.eps)
    w = w.T if along_x1 else w
    lines, n = v.shape
    D = diff_matrix(n, u_prev.spacing(params.axis), params.k)
    band = params.k + 1
    rhs = (v / w).ravel()

    def solve(mob):
        # lower form: row s holds (D^T diag(m) D)[j+s, j] in column j, which
        # is m @ (D[:, :n-s] * D[:, s:])[:, j] for each line
        ab = np.zeros((band + 1, lines, n))
        for s in range(band + 1):
            ab[s, :, : n - s] = params.alpha * (mob @ (D[:, : n - s] * D[:, s:]))
        ab[0] += 1.0 / w
        return solveh_banded(ab.reshape(band + 1, -1), rhs, lower=True).reshape(lines, n)

    if params.p == 2:
        out = solve(np.ones(n))
    else:
        out = v
        b2 = params.beta**2
        for _ in range(INNER_MAX):
            g = out @ D.T
            new = solve(1.0 / np.sqrt(g * g + b2))
            rel = np.linalg.norm(new - out) / max(np.linalg.norm(out), 1e-300)
            out = new
            if rel <= INNER_TOL:
                break
        else:
            raise SolverError(
                f"p=1 inner fixed point did not converge (last change {rel:.3g})"
            )
    return u_prev.with_values(out.T if along_x1 else out)


def iterate(
    u0: ScalarField,
    params: EnergyParams,
    m_max: int = 500,
    stop_tol: float | None = None,
) -> tuple[ScalarField, IterTrace]:
    """Lagged convex iteration u_m = argmin Fc(u; u_{m-1}) starting at u0.

    d1 u_m is computed once per iterate: it gives grad_linf, the data-term
    weight of the next Fc and, for (axis, k) = (X1, 1), R(u_m) too.  The
    trace says whether the run stopped on du <= stop_tol.
    """
    if m_max < 1:
        raise SolverError("m_max must be at least 1")
    if stop_tol is None:
        stop_tol = 1e-6 * norm_l2(u0)
    reuse_d1 = (params.axis, params.k) == (Axis.X1, 1)
    trace = IterTrace()
    u_prev, d1 = u0, diff(u0, Axis.X1, 1)
    for m in range(1, m_max + 1):
        u = convex_step(u_prev, params)
        du = norm_l2(u.with_values(u.values - u_prev.values))
        w = _weight(d1.values, params.q, params.eps)
        d1 = diff(u, Axis.X1, 1)
        g = d1.values if reuse_d1 else diff(u, params.axis, params.k).values
        reg = _roughness(g, u, params.p, params.beta)
        fc = _data_term(u, u_prev, w) + params.alpha * reg
        trace.append(m, fc, reg, du, norm_linf(d1))
        u_prev = u
        if du <= stop_tol:
            trace.converged = True
            break
    return u_prev, trace
