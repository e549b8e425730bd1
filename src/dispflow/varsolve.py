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

import importlib.machinery
import importlib.util
import io
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .grid import Axis, ScalarField, diff, diff_matrix, distinct_columns, norm_l2, norm_linf

#: relative slack allowed on the monotonicity checks (solver tolerance)
MONOTONE_SLACK = 1e-9
#: p=1 inner fixed point: stop at this relative change, fail after INNER_MAX
INNER_TOL = 1e-6
INNER_MAX = 200
#: scipy's compiled LAPACK wrappers, the module that holds dpbsv
_FLAPACK = "scipy.linalg._flapack"


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
        for name in ("alpha", "eps", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise SolverError(f"{name} must be finite, got {getattr(self, name)}")
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


def _data_term(r: np.ndarray, w: np.ndarray, u: ScalarField) -> float:
    # (1/2) * integral r^2 / w on u's grid, r = u - u_ref
    return float(0.5 * u.dx1 * u.dx2 * np.sum(r * r / w))


def energy_D2(u: ScalarField, u_ref: ScalarField, eps: float) -> float:
    """(1/2) * integral (u - u_ref)^2 / ((d1 u)^2 + eps)."""
    _check_same_shape(u, u_ref)
    return _data_term(u.values - u_ref.values, _weight(_d1(u), 2, eps), u)


def energy_D1(u: ScalarField, u_ref: ScalarField, eps: float) -> float:
    """(1/2) * integral (u - u_ref)^2 / (|d1 u| + eps)."""
    _check_same_shape(u, u_ref)
    return _data_term(u.values - u_ref.values, _weight(_d1(u), 1, eps), u)


def fc_energy(u: ScalarField, u_prev: ScalarField, params: EnergyParams) -> float:
    """Convex surrogate Fc(u; u_prev) with the denominator frozen at u_prev."""
    _check_same_shape(u, u_prev)
    w = _weight(_d1(u_prev), params.q, params.eps)
    return _data_term(u.values - u_prev.values, w, u) + params.alpha * energy_R(
        u, params.axis, params.k, params.p, params.beta
    )


def convex_step(u_prev: ScalarField, params: EnergyParams) -> ScalarField:
    """Minimizer of the strictly convex surrogate Fc(. ; u_prev).

    Each line along params.axis solves (1/w) u + alpha * D^T diag(mob) D u
    = u_prev / w, with D = diff_matrix and mob = 1 for p=2 (the lagged
    diffusivity of the inner fixed point for p=1).  The lines, laid end to
    end, form one SPD matrix of half-bandwidth k+1 with no entry coupling
    two lines, factored in place by one LAPACK banded Cholesky solve
    (`_BandSolver`, built once per call; the first call of a process loads
    scipy's compiled LAPACK wrappers, see `_load_dpbsv`).
    A p=2 step along X1 solves each distinct column once (see `_prepare`).
    """
    solver, group = _prepare(u_prev, params)
    w = _weight(_d1(u_prev), params.q, params.eps)
    part = u_prev.with_values(_columns(u_prev.values, group))
    return _gather(solver.step(part, _columns(w, group)), group)


def _prepare(u0: ScalarField, params: EnergyParams) -> tuple:
    """The solver for convex steps from u0 and its iterates, and the column
    grouping it solves on (see `_columns` and `_gather`).

    A p=2 step along X1 solves each column as its own line: its weight
    w = (d1 u)^q + eps, its right-hand side and its band act inside that
    column, so columns equal in u0 stay equal at every iterate.  If u0
    repeats a column, the grouping is (first, inverse) of
    grid.distinct_columns and the solver is built on the distinct columns
    alone.  Otherwise it is None and the solver solves every line: along
    X2, where the x1 weight couples the lines, and for p=1, whose mobility
    is a BLAS product whose rows can differ in the last bits with their
    place in it, so that equal columns need not stay equal.
    """
    group = None
    if (params.axis, params.p) == (Axis.X1, 2):
        first, inverse = distinct_columns(u0.values)
        if len(first) < u0.n2:  # all distinct: no gather or scatter per step
            group = first, inverse
    shape = u0.shape if group is None else (u0.n1, len(group[0]))
    return _BandSolver(shape, u0.spacing(params.axis), params), group


def _columns(a: np.ndarray, group) -> np.ndarray:
    """The columns of a that the solver solves: those in first, for
    group = (first, inverse), or all of them."""
    return a if group is None else a[:, group[0]]


def _gather(part: ScalarField, group) -> ScalarField:
    """The solution on the solved columns, gathered back to every column
    through inverse in the Fortran order that a solve of every line leaves."""
    return part if group is None else part.with_values(np.take(part.values.T, group[1], axis=0).T)


def _load_dpbsv():
    """LAPACK dpbsv, the banded Cholesky solve, from scipy.linalg._flapack.

    scipy.linalg.lapack, dpbsv's public home, imports all of scipy.linalg
    with it.  The compiled module it re-exports needs only numpy: it is
    reused from sys.modules if scipy.linalg loaded it already, and is
    otherwise loaded alone from scipy's package directory, which
    find_spec locates without importing scipy.  It is registered under
    its real name, so a later import of scipy.linalg reuses it and
    scipy.linalg.lapack.dpbsv is this same function.  If the file is
    missing or does not load, dpbsv comes from scipy.linalg.lapack.
    """
    module = sys.modules.get(_FLAPACK) or _load_flapack()
    if module is None:
        from scipy.linalg.lapack import dpbsv

        return dpbsv
    return module.dpbsv


def _load_flapack():
    """scipy.linalg._flapack loaded from its file and registered in
    sys.modules, or None if no such file loads."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if not os.path.isfile(path):
                continue
            loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
            try:
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(_FLAPACK, path, loader=loader)
                )
                loader.exec_module(module)
            except ImportError:
                return None
            sys.modules[_FLAPACK] = module
            return module
    return None


class _BandSolver:
    """The convex step's banded system on one grid shape, prepared once.

    The band is held in lower form (row s holds A[j+s, j] in column j) in
    one Fortran-ordered work array that LAPACK pbsv factors in place, so
    every solve refills all of it: for p=2 from a template of the constant
    rows alpha * D^T D built once, for p=1 from the current mobility.  Each
    solve checks once that the band and right-hand side are finite, which
    is what scipy's solveh_banded would check on its own copies.  pbsv is
    scipy's dpbsv, loaded on the first solver of a process by
    `_load_dpbsv`, so that the package and every other pipeline run
    without scipy and this one loads one scipy module, not scipy.linalg.
    """

    def __init__(self, shape, spacing: float, params: EnergyParams):
        self._pbsv = _load_dpbsv()
        self.params = params
        self.along_x1 = params.axis == Axis.X1
        n, lines = shape if self.along_x1 else shape[::-1]  # one line per row
        self.D = diff_matrix(n, spacing, params.k)
        rows = params.k + 2
        # _band[i, j, s] is row s, column j of line i; _ab is the same memory
        # as the (rows, lines * n) Fortran-ordered band that pbsv reads
        self._band = np.empty((lines, n, rows))
        self._ab = self._band.reshape(lines * n, rows).T
        self._template = None
        if params.p == 2:
            self._template = np.empty((n, rows))
            self._fill(self._template, np.ones(n))

    def _fill(self, dst: np.ndarray, mob: np.ndarray):
        # row s of alpha * D^T diag(m) D, m @ (D[:, :n-s] * D[:, s:]) for each
        # line, and zero past the line's end
        D, n = self.D, self.D.shape[0]
        for s in range(dst.shape[-1]):
            dst[..., : n - s, s] = self.params.alpha * (mob @ (D[:, : n - s] * D[:, s:]))
            dst[..., n - s :, s] = 0.0

    def solve(self, inv_w: np.ndarray, rhs: np.ndarray, mob: np.ndarray | None = None) -> np.ndarray:
        """Solve diag(inv_w) u + alpha * D^T diag(mob) D u = rhs on every
        line, all (lines, n); mob None is the p=2 template (mob = 1)."""
        if mob is None:
            self._band[...] = self._template
        else:
            self._fill(self._band, mob)
        self._band[:, :, 0] += inv_w
        x = rhs.flatten()
        if not (np.isfinite(self._ab).all() and np.isfinite(x).all()):
            raise SolverError("non-finite band or right-hand side in the convex step")
        _, x, info = self._pbsv(self._ab, x, lower=1, overwrite_ab=1, overwrite_b=1)
        if info != 0:
            raise SolverError(f"banded Cholesky solve failed (LAPACK pbsv info {info})")
        return x.reshape(rhs.shape)

    def step(self, u_prev: ScalarField, w: np.ndarray) -> ScalarField:
        """convex_step given w, the data-term weight of u_prev."""
        v, w = (u_prev.values.T, w.T) if self.along_x1 else (u_prev.values, w)
        inv_w, rhs = 1.0 / w, v / w
        if self.params.p == 2:
            out = self.solve(inv_w, rhs)
        else:
            out = v
            b2 = self.params.beta**2
            for _ in range(INNER_MAX):
                g = out @ self.D.T
                new = self.solve(inv_w, rhs, 1.0 / np.sqrt(g * g + b2))
                rel = np.linalg.norm(new - out) / max(np.linalg.norm(out), 1e-300)
                out = new
                if rel <= INNER_TOL:
                    break
            else:
                raise SolverError(
                    f"p=1 inner fixed point did not converge (last change {rel:.3g})"
                )
        return u_prev.with_values(out.T if self.along_x1 else out)


def iterate(
    u0: ScalarField,
    params: EnergyParams,
    m_max: int = 500,
    stop_tol: float | None = None,
) -> tuple[ScalarField, IterTrace]:
    """Lagged convex iteration u_m = argmin Fc(u; u_{m-1}) starting at u0.

    One `_BandSolver` is built per call and solves every convex step: the
    diff_matrix, the work band and, for p=2, the template of its constant
    rows are made once, not once per iteration.  A p=2 iteration along X1
    groups u0's columns once and solves each distinct column once per step
    (see `_prepare`); the iterate is gathered back, Fortran-ordered as the
    solve of every line leaves it, so the trace's sums read the same bits.
    d1 u_m is computed once per iterate: it gives grad_linf, the data-term
    weight that both the next convex step and the next Fc use and, for
    (axis, k) = (X1, 1), R(u_m) too.  The trace says whether the run
    stopped on du <= stop_tol; a NaN or negative stop_tol is a SolverError.
    """
    if m_max < 1:
        raise SolverError("m_max must be at least 1")
    if stop_tol is None:
        stop_tol = 1e-6 * norm_l2(u0)
    elif not stop_tol >= 0:
        raise SolverError(f"stop_tol must be non-negative, got {stop_tol}")
    reuse_d1 = (params.axis, params.k) == (Axis.X1, 1)
    solver, group = _prepare(u0, params)
    trace = IterTrace()
    u_prev, d1 = u0, diff(u0, Axis.X1, 1)
    part = u0.with_values(_columns(u0.values, group))  # the solved columns of u_prev
    for m in range(1, m_max + 1):
        w = _weight(d1.values, params.q, params.eps)
        part = solver.step(part, _columns(w, group))
        u = _gather(part, group)
        r = u.values - u_prev.values
        du = float(np.sqrt(u.dx1 * u.dx2 * np.sum(r**2)))  # norm_l2 of r
        d1 = diff(u, Axis.X1, 1)
        g = d1.values if reuse_d1 else diff(u, params.axis, params.k).values
        reg = _roughness(g, u, params.p, params.beta)
        fc = _data_term(r, w, u) + params.alpha * reg
        trace.append(m, fc, reg, du, norm_linf(d1))
        u_prev = u
        if du <= stop_tol:
            trace.converged = True
            break
    return u_prev, trace
