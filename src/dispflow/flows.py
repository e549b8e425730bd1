"""Explicit time-stepping of the nonlinear displacement-correction flows.

The flow family is

    du/dt = (-1)^(k-1) * |d1 u|^q * d_i^k( d_i^k u / |d_i^k u|^(2-p) )

with axis i in {X1, X2}, derivative order k in {1, 2}, regularizer power
p in {1, 2} and mobility power q in {1, 2}.  The mobility |d1 u|^q is
always taken along X1; it gates the equation to regions where the field
varies in the x1 direction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import Axis, GridError, ScalarField, diff_axis0_kernel, row_pair

#: hard floor used in the CFL bound so a flat field never divides by zero
DT_FLOOR = 1e-12


class FlowError(ValueError):
    pass


class StabilityError(RuntimeError):
    """Raised when a forward-Euler step produces a non-finite field."""


@dataclass(frozen=True)
class FlowParams:
    axis: Axis = Axis.X1
    k: int = 1
    p: int = 2
    q: int = 2
    beta: float = 1e-6   # smoothing of |s| in the p=1 quotient
    eps: float = 0.0     # additive mobility floor
    cfl: float = 0.5     # CFL safety factor, in (0, 1]
    dt_max: float = np.inf

    def __post_init__(self):
        if self.k not in (1, 2) or self.p not in (1, 2) or self.q not in (1, 2):
            raise FlowError("k, p, q must each be 1 or 2")
        for name in ("beta", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise FlowError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.dt_max > 0:
            raise FlowError(f"dt_max must be positive, got {self.dt_max}")
        if self.p == 1 and self.beta <= 0:
            raise FlowError("beta must be positive when p=1")
        if self.eps < 0:
            raise FlowError("eps must be non-negative")
        if not (0.0 < self.cfl <= 1.0):
            raise FlowError("cfl must lie in (0, 1]")


@dataclass
class FlowState:
    u: ScalarField
    t: float = 0.0
    steps: int = 0
    last_dt: float = 0.0
    residuals: list = field(default_factory=list)  # ||rhs||_inf per step
    truncated: bool = False  # stopped at max_steps short of t_end


def _check_shape(shape, params: FlowParams):
    """The mobility needs 3 samples along X1; the flow stencils need 2 along
    the flow axis, and the p=1 CFL bound's order-k difference 2k+1."""
    need = [3, 1]
    need[params.axis] = max(need[params.axis], 2 * params.k + 1 if params.p == 1 else 2)
    for axis, n, m in zip(Axis, shape, need):
        if n < m:
            raise GridError(
                f"axis {axis.name} has {n} samples, need at least {m} for the "
                f"(k={params.k}, p={params.p}) flow along {params.axis.name}"
            )


def _flow_layout(values: np.ndarray, params: FlowParams) -> np.ndarray:
    """The field with the flow axis first: itself for X1, its transpose for X2."""
    return values if params.axis == Axis.X1 else values.T


class _Workspace:
    """One flow on one grid, in the flow layout: its buffers and, for each
    field buffer it may read, that buffer's bound kernels.

    mob and rhs hold the mobility and the right-hand side; inner holds the
    k=1 face fluxes (n+1 rows) or the k=2 inner second difference, and
    scratch the p=1 quotient's and CFL bound's temporaries.  kernels[i] is
    (mobility, rhs, stable_dt) for fields[i]: functions of no argument whose
    views and temporaries are built here, so evaluating them allocates
    nothing.  Each reads the field's current values, rhs reads mob, and
    stable_dt reads mob and uses inner and scratch, not rhs."""

    def __init__(self, fields, dx1: float, dx: float, params: FlowParams):
        n, m = fields[0].shape
        self.mob = np.empty((n, m))
        self.rhs = np.empty((n, m))
        self.inner = np.empty((n + 1 if params.k == 1 else n, m))
        self.scratch = np.empty_like(self.inner)
        self.kernels = [
            (_mobility(v, dx1, params, self.mob), _rhs(v, dx, params, self),
             _stable_dt(v, dx, params, self))
            for v in fields
        ]


def _mobility(v: np.ndarray, dx1: float, params: FlowParams, out: np.ndarray):
    """|d1 u|^q + eps into out, bound to v; v and out are in the flow layout."""
    # _flow_layout undoes itself: v and out with X1 first
    d1 = diff_axis0_kernel(_flow_layout(v, params), dx1, 1, _flow_layout(out, params))

    def run():
        d1()
        if params.q == 2:
            np.multiply(out, out, out=out)  # |g|^2 == g * g exactly
        else:
            np.abs(out, out=out)
        if params.eps:  # adding 0.0 to a non-negative mobility changes nothing
            np.add(out, params.eps, out=out)
        return out

    return run


def _quotient(g: np.ndarray, params: FlowParams, tmp: np.ndarray) -> np.ndarray:
    """g / sqrt(g^2 + beta^2) in place for p=1 (g itself for p=2)."""
    if params.p == 1:
        np.multiply(g, g, out=tmp)
        tmp += params.beta**2
        np.sqrt(tmp, out=tmp)
        g /= tmp
    return g


def _face_gradient(v: np.ndarray, dx: float, out: np.ndarray):
    """First derivative at the n+1 cell faces along axis 0 into out, bound
    to v.

    Interior faces use the compact two-point difference; each boundary face
    copies the nearest interior face, so the flux divergence vanishes at the
    boundary cells.  This keeps affine fields exactly stationary and, unlike
    higher-order flux extrapolation, never injects energy at the boundary."""
    n = v.shape[0]
    mid, hi, lo = out[1:-1], v[1:], v[:-1]
    ends, near = out[::n], row_pair(out, 1, n - 1)  # g[0] = g[1], g[-1] = g[-2]

    def run():
        np.subtract(hi, lo, out=mid)
        np.divide(mid, dx, out=mid)
        np.copyto(ends, near)
        return out

    return run


def _neumann_d2(v: np.ndarray, h2: float, out: np.ndarray):
    """Second difference along axis 0 into out, bound to v, with
    even-reflection ghost cells (zero odd derivative at the boundary faces),
    divided by h2 = dx^2, or by -dx^2 for the negated operator:
    x / -h2 == -(x / h2) exactly.  The resulting matrix is symmetric
    negative semidefinite, so the composed k=2 operator cannot inject energy
    at the boundary."""
    n = v.shape[0]
    mid, centre, lo, hi = out[1:-1], v[1:-1], v[:-2], v[2:]
    ends, near, edge = out[:: n - 1], row_pair(v, 1, n - 2), row_pair(v, 0, n - 1)

    def run():
        # (v[:-2] - 2 v[1:-1] + v[2:]); (v[1] - v[0]) and (v[-2] - v[-1]) at the ends
        np.multiply(2.0, centre, out=mid)
        np.subtract(lo, mid, out=mid)
        np.add(mid, hi, out=mid)
        np.subtract(near, edge, out=ends)
        np.divide(out, h2, out=out)
        return out

    return run


def _rhs(v: np.ndarray, dx: float, params: FlowParams, ws: _Workspace):
    """Right-hand side into ws.rhs, bound to v in the flow layout; reads
    v's mobility from ws.mob.

    k=1 uses a staggered conservative form (flux at cell faces, divergence
    back to centers), which avoids the odd/even decoupling of composed
    wide central stencils; k=2 composes the self-adjoint reflection-BC
    second difference with itself, the outer one negated for the sign
    (-1)^(k-1)."""
    out, mob, inner, scratch = ws.rhs, ws.mob, ws.inner, ws.scratch
    if params.k == 1:
        grad, hi, lo = _face_gradient(v, dx, inner), inner[1:], inner[:-1]

        def run():
            _quotient(grad(), params, scratch)
            np.subtract(hi, lo, out=out)
            np.divide(out, dx, out=out)
            np.multiply(out, mob, out=out)
            return out
    else:
        h2 = dx * dx
        d2, outer = _neumann_d2(v, h2, inner), _neumann_d2(inner, -h2, out)

        def run():
            _quotient(d2(), params, scratch)
            outer()
            np.multiply(out, mob, out=out)
            return out

    return run


def _stable_dt(v: np.ndarray, dx: float, params: FlowParams, ws: _Workspace):
    """Parabolic CFL bound for the frozen-coefficient linearization, bound
    to v; reads v's mobility from ws.mob.

    dt = cfl * dx_i^(2k) / (2^(2k) * max coefficient), where the local
    coefficient is mobility times the derivative of the p=1 quotient
    (identically 1 for p=2).  Uses ws.inner and ws.scratch, not ws.rhs.
    """
    coeff, floor = ws.mob, max(params.eps, DT_FLOOR)
    num, den = params.cfl * dx ** (2 * params.k), 2 ** (2 * params.k)
    if params.p == 1:
        n, mob, b2 = v.shape[0], ws.mob, params.beta**2
        g, coeff = ws.inner[:n], ws.scratch[:n]
        diff = diff_axis0_kernel(v, dx, params.k, g)

    def run():
        if params.p == 1:
            diff()
            # mob * b2 / (g * g + b2) ** 1.5
            np.multiply(g, g, out=g)
            np.add(g, b2, out=g)
            np.power(g, 1.5, out=g)
            np.multiply(mob, b2, out=coeff)
            np.divide(coeff, g, out=coeff)
        cmax = max(float(coeff.max()), floor)
        return float(min(num / (den * cmax), params.dt_max))

    return run


def flow_rhs(u: ScalarField, params: FlowParams) -> ScalarField:
    """Right-hand side of the flow evaluated with finite differences."""
    _check_shape(u.shape, params)
    v = _flow_layout(u.values, params)
    mobility, rhs, _ = _Workspace((v,), u.dx1, u.spacing(params.axis), params).kernels[0]
    mobility()
    return u.with_values(_flow_layout(rhs(), params))


def stable_dt(u: ScalarField, params: FlowParams) -> float:
    """Parabolic CFL bound of the explicit step at u (see _stable_dt)."""
    _check_shape(u.shape, params)
    v = _flow_layout(u.values, params)
    mobility, _, dt = _Workspace((v,), u.dx1, u.spacing(params.axis), params).kernels[0]
    mobility()
    return dt()


def evolve(
    u0: ScalarField,
    params: FlowParams,
    t_end: float,
    dt_override: float | None = None,
    stop_residual: float | None = None,
    max_steps: int = 10_000_000,
    max_change: float | None = 0.05,
) -> FlowState:
    """Forward-Euler integration from t=0 to t_end.

    Each step uses dt = min(stable_dt, remaining time), or dt_override in
    place of the stability bound when given, and the
    per-step ||rhs||_inf series is recorded.  Stops early once the residual
    drops below stop_residual (if given).  A non-finite rhs or a step
    producing a non-finite field raises StabilityError.  Stopping at
    max_steps short of t_end emits a RuntimeWarning that gives the time
    reached and sets FlowState.truncated.  A grid too small for the
    stencils raises GridError before the first step.

    An X1 flow steps each distinct column of u0 once: every stencil acts
    within a column, and the reductions (max |rhs|, the CFL bound's maximum
    coefficient, the initial range) take the same value over the distinct
    columns as over all of them, so the result, t, the step count and the
    residuals are bitwise those of stepping every column.  Columns are
    grouped by their bytes, so -0.0 and 0.0 stay apart.  An X2 flow couples
    its rows through the x1 mobility and steps the whole field.

    The loop runs in one workspace allocated per call: two field buffers
    that swap each step, in the flow layout (an X2 flow runs on the
    contiguous transpose), and the buffers and bound kernels of _Workspace,
    so a step allocates no array and builds no view.  The result is
    gathered back to u0's columns, or transposed back, once at the end.  It
    computes the mobility once per step for both the rhs and the CFL bound
    and never writes into u0.

    max_change additionally caps each step so no sample moves by more than
    that fraction of the initial dynamic range; the frozen-coefficient CFL
    bound alone can admit huge steps for the saturated p=1 quotient.
    """
    if not np.isfinite(t_end) and stop_residual is None:
        raise FlowError("t_end must be finite unless stop_residual is set")
    if t_end < 0:
        raise FlowError("t_end must be non-negative")
    _check_shape(u0.shape, params)
    if params.axis == Axis.X1:
        cols = np.ascontiguousarray(u0.values.T)  # the bytes of each column as one key
        keys = cols.view(np.dtype((np.void, cols[0].nbytes))).ravel()
        first, lines = np.unique(keys, return_index=True, return_inverse=True)[1:]
        u = np.take(u0.values, first, axis=1)
    else:
        u = np.array(u0.values.T, order="C")
    nxt, finite = np.empty_like(u), np.empty(u.shape, dtype=bool)
    ws = _Workspace((u, nxt), u0.dx1, u0.spacing(params.axis), params)
    t, steps, last_dt, residuals, side = 0.0, 0, 0.0, [], 0
    u0range = float(np.max(u) - np.min(u))
    # overflow in a wildly unstable step surfaces as StabilityError below
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end and steps < max_steps:
            mobility, rhs_of, stable_dt_of = ws.kernels[side]
            mobility()  # one mobility per step, shared by the rhs and the CFL bound
            rhs = rhs_of()
            res = float(np.abs(rhs, out=nxt).max())  # NaN and inf propagate
            if not math.isfinite(res):
                raise StabilityError(f"non-finite rhs at step {steps}")
            residuals.append(res)
            if stop_residual is not None and res <= stop_residual:
                break
            base_dt = dt_override if dt_override is not None else stable_dt_of()
            dt = min(base_dt, t_end - t)
            if max_change is not None and res > 0 and u0range > 0:
                dt = min(dt, max_change * u0range / res)
            np.multiply(dt, rhs, out=nxt)
            nxt += u  # u + dt * rhs
            if not np.isfinite(nxt, out=finite).all():
                raise StabilityError(f"non-finite field after step {steps} (dt={dt:g})")
            u, nxt, side = nxt, u, 1 - side
            t += dt
            steps += 1
            last_dt = dt
    truncated = steps >= max_steps and t < t_end
    if truncated:
        warnings.warn(
            f"evolve stopped at max_steps={max_steps}: t = {t:.6g} of t_end = {t_end:.6g}",
            RuntimeWarning,
            stacklevel=2,
        )
    u = np.take(u, lines, axis=1) if params.axis == Axis.X1 else np.ascontiguousarray(u.T)
    return FlowState(u0.with_values(u), t, steps, last_dt, residuals, truncated)
