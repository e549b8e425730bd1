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

from .grid import Axis, GridError, ScalarField, diff_axis0_kernel, distinct_columns, row_pair

#: hard floor used in the CFL bound so a flat field never divides by zero
DT_FLOOR = 1e-12

#: evolve scans its field for non-finite samples only once its running
#: bound max |u0| + sum(dt * max |rhs|) on max |u| reaches this (or is NaN).
#: Below it every sample is finite: rounding can put max |u| above the bound
#: by a factor (1 + 2**-53) ** (4 * steps) at most, and the factor 1.8e8
#: from 1e300 to overflow leaves room for over 1e16 steps.
SCAN_FROM = 1e300


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

    def __post_init__(self):
        if self.k not in (1, 2) or self.p not in (1, 2) or self.q not in (1, 2):
            raise FlowError("k, p, q must each be 1 or 2")
        for name in ("beta", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise FlowError(f"{name} must be finite, got {getattr(self, name)}")
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
    capped: int = 0  # steps whose dt the max_change cap set


def check_shape(shape, params: FlowParams):
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
    """One flow on one field array u, in the flow layout: its buffers and
    bound calls.

    mob and rhs hold the mobility and the right-hand side; inner holds the
    k=1 face fluxes (n+1 rows) or the k=2 inner second difference, and
    scratch the p=1 quotient's and CFL bound's temporaries.  step and cfl
    are lists of bound calls, (function, positional arguments) pairs
    run in order, whose views of u, 0-d scalar operands and variant
    branches (k, p, q, eps) are all fixed here, so running them allocates
    nothing, tests no setting and reads u's current values.  step writes
    the mobility into mob, then the rhs into rhs; cfl, run after it, writes
    the CFL bound's coefficient into coeff (mob itself for p=2) using inner
    and scratch, not rhs."""

    def __init__(self, u: np.ndarray, dx1: float, dx: float, params: FlowParams):
        shape = u.shape  # (n, m), or (n,) for one X1 column
        n = shape[0]
        self.mob, self.rhs = np.empty(shape), np.empty(shape)
        self.inner = np.empty((n + 1 if params.k == 1 else n,) + shape[1:])
        self.scratch = np.empty_like(self.inner)
        self.coeff = self.scratch[:n] if params.p == 1 else self.mob
        # dt = cfl * dx_i^(2k) / (2^(2k) * max(max coeff, floor)); see _stable_dt
        try:
            self.num = float(params.cfl * dx ** (2 * params.k))
        except OverflowError:
            raise FlowError(f"grid spacing {dx!r} along {params.axis.name} is too large for the "
                            f"k={params.k} flow: its CFL bound's dx^{2 * params.k} overflows") from None
        self.den = 2 ** (2 * params.k)
        self.floor = max(params.eps, DT_FLOOR)
        self.step = _mobility(u, dx1, params, self.mob) + _rhs(u, dx, params, self)
        self.cfl = _stable_dt(u, dx, params, self)

    def rhs_of(self) -> np.ndarray:
        """The mobility of u into mob, then its rhs into rhs."""
        for f, args in self.step:
            f(*args)
        return self.rhs

    def stable_dt_of(self) -> float:
        """The CFL bound at u, from the mobility in mob."""
        for f, args in self.cfl:
            f(*args)
        return self.num / (self.den * max(float(np.maximum.reduce(self.coeff, None)), self.floor))


def _mobility(v: np.ndarray, dx1: float, params: FlowParams, out: np.ndarray) -> list:
    """Calls writing |d1 u|^q + eps into out from v, both in the flow layout."""
    # _flow_layout undoes itself: v and out with X1 first
    calls = diff_axis0_kernel(_flow_layout(v, params), dx1, 1, _flow_layout(out, params))
    # |g|^2 == g * g exactly
    calls.append((np.multiply, (out, out, out)) if params.q == 2 else (np.absolute, (out, out)))
    if params.eps:  # adding 0.0 to a non-negative mobility changes nothing
        calls.append((np.add, (out, np.array(params.eps), out)))
    return calls


def _quotient(g: np.ndarray, params: FlowParams, tmp: np.ndarray) -> list:
    """Calls turning g into g / sqrt(g^2 + beta^2) in place for p=1 (none
    for p=2)."""
    if params.p == 2:
        return []
    b2 = np.array(params.beta**2)
    return [(np.multiply, (g, g, tmp)), (np.add, (tmp, b2, tmp)), (np.sqrt, (tmp, tmp)),
            (np.divide, (g, tmp, g))]


def _face_gradient(v: np.ndarray, dx: float, out: np.ndarray) -> list:
    """Calls writing the first derivative at the n+1 cell faces along axis 0
    of v into out.

    Interior faces use the compact two-point difference; each boundary face
    copies the nearest interior face, so the flux divergence vanishes at the
    boundary cells.  This keeps affine fields exactly stationary and, unlike
    higher-order flux extrapolation, never injects energy at the boundary."""
    n, mid = v.shape[0], out[1:-1]
    return [(np.subtract, (v[1:], v[:-1], mid)), (np.divide, (mid, np.array(dx), mid)),
            (np.copyto, (out[::n], row_pair(out, 1, n - 1)))]  # g[0] = g[1], g[-1] = g[-2]


def _neumann_d2(v: np.ndarray, h2: float, out: np.ndarray) -> list:
    """Calls writing the second difference along axis 0 of v into out, with
    even-reflection ghost cells (zero odd derivative at the boundary faces),
    divided by h2 = dx^2, or by -dx^2 for the negated operator:
    x / -h2 == -(x / h2) exactly.  The resulting matrix is symmetric
    negative semidefinite, so the composed k=2 operator cannot inject energy
    at the boundary."""
    n, mid = v.shape[0], out[1:-1]
    # (v[:-2] - 2 v[1:-1] + v[2:]); (v[1] - v[0]) and (v[-2] - v[-1]) at the ends
    return [(np.multiply, (np.array(2.0), v[1:-1], mid)), (np.subtract, (v[:-2], mid, mid)),
            (np.add, (mid, v[2:], mid)),
            (np.subtract, (row_pair(v, 1, n - 2), row_pair(v, 0, n - 1), out[:: n - 1])),
            (np.divide, (out, np.array(h2), out))]


def _rhs(v: np.ndarray, dx: float, params: FlowParams, ws: _Workspace) -> list:
    """Calls writing the right-hand side of v, in the flow layout, into
    ws.rhs; they read v's mobility from ws.mob.

    k=1 uses a staggered conservative form (flux at cell faces, divergence
    back to centers), which avoids the odd/even decoupling of composed
    wide central stencils; k=2 composes the self-adjoint reflection-BC
    second difference with itself, the outer one negated for the sign
    (-1)^(k-1)."""
    out, inner = ws.rhs, ws.inner
    quotient = _quotient(inner, params, ws.scratch)
    if params.k == 1:
        calls = _face_gradient(v, dx, inner) + quotient + [
            (np.subtract, (inner[1:], inner[:-1], out)), (np.divide, (out, np.array(dx), out))]
    else:
        h2 = dx * dx
        calls = _neumann_d2(v, h2, inner) + quotient + _neumann_d2(inner, -h2, out)
    return calls + [(np.multiply, (out, ws.mob, out))]


def _stable_dt(v: np.ndarray, dx: float, params: FlowParams, ws: _Workspace) -> list:
    """Calls writing the coefficient of the parabolic CFL bound at v into
    ws.coeff (none for p=2, whose coefficient is ws.mob itself); they read
    v's mobility from ws.mob and use ws.inner and ws.scratch, not ws.rhs.

    The bound of the frozen-coefficient linearization is
    dt = cfl * dx_i^(2k) / (2^(2k) * max coefficient) (_Workspace.stable_dt_of),
    where the local coefficient is mobility times the derivative of the p=1
    quotient (identically 1 for p=2)."""
    if params.p == 2:
        return []
    g, b2 = ws.inner[: v.shape[0]], np.array(params.beta**2)
    # mob * b2 / (g * g + b2) ** 1.5
    return diff_axis0_kernel(v, dx, params.k, g) + [
        (np.multiply, (g, g, g)), (np.add, (g, b2, g)), (np.power, (g, np.array(1.5), g)),
        (np.multiply, (ws.mob, b2, ws.coeff)), (np.divide, (ws.coeff, g, ws.coeff))]


def flow_rhs(u: ScalarField, params: FlowParams) -> ScalarField:
    """Right-hand side of the flow evaluated with finite differences."""
    check_shape(u.shape, params)
    v = _flow_layout(u.values, params)
    ws = _Workspace(v, u.dx1, u.spacing(params.axis), params)
    return u.with_values(_flow_layout(ws.rhs_of(), params))


def stable_dt(u: ScalarField, params: FlowParams) -> float:
    """Parabolic CFL bound of the explicit step at u (see _stable_dt)."""
    check_shape(u.shape, params)
    v = _flow_layout(u.values, params)
    ws = _Workspace(v, u.dx1, u.spacing(params.axis), params)
    ws.rhs_of()  # the mobility the CFL bound reads
    return ws.stable_dt_of()


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
    stencils raises GridError before the first step, and a spacing along
    the flow axis whose dx^(2k) overflows a FlowError.

    An X1 flow steps each distinct column of u0 once: every stencil acts
    within a column, and the reductions (max |rhs|, the CFL bound's maximum
    coefficient, the initial range) take the same value over the distinct
    columns as over all of them, so the result, t, the step count and the
    residuals are bitwise those of stepping every column.  Columns are
    grouped by their bytes (grid.distinct_columns, which the X1 convex step
    shares), so -0.0 and 0.0 stay apart.  An X2 flow couples its rows
    through the x1 mobility and steps the whole field.

    The loop runs in one workspace allocated per call: one field buffer,
    this call's own copy of u0 in the flow layout (an X2 flow runs on the
    contiguous transpose), updated in place; one temporary; and the buffers
    and calls of _Workspace, bound once, so a step allocates no array,
    builds no view and tests no flow setting.  A step runs the bound calls
    of the mobility and the rhs, max |rhs| (which must be finite), the CFL
    bound's calls and formula, and the update u += dt * rhs.  In those
    calls a one-column X1 field's stencil boundary rows are one call in
    Python floats (grid.diff_axis0_kernel).  The step scans u for
    non-finite samples only once the running bound
    max |u0| + sum(dt * max |rhs|) reaches SCAN_FROM: below it no sample
    can have overflowed, so a StabilityError comes at the step, and with
    the message, of a scan after every step.  The result is gathered back
    to u0's columns, or transposed back, once at the end.  It computes the
    mobility once per step for both the rhs and the CFL bound and never
    writes into u0.

    max_change additionally caps each step so no sample moves by more than
    that fraction of the initial dynamic range; the frozen-coefficient CFL
    bound alone can admit huge steps for the saturated p=1 quotient.
    FlowState.capped counts the steps whose dt that cap set, below both
    the step bound and the remaining time.  t_end must be non-negative,
    and finite unless stop_residual is set; stop_residual, when not None,
    non-negative; max_steps a positive int; dt_override and max_change,
    when not None, finite and positive.  Anything else is a FlowError
    before the first step.
    """
    if not np.isfinite(t_end) and stop_residual is None:
        raise FlowError("t_end must be finite unless stop_residual is set")
    if not t_end >= 0:
        raise FlowError(f"t_end must be non-negative, got {t_end}")
    if stop_residual is not None and not stop_residual >= 0:
        raise FlowError(f"stop_residual must be non-negative, got {stop_residual}")
    if not isinstance(max_steps, (int, np.integer)) or max_steps < 1:
        raise FlowError(f"max_steps must be a positive int, got {max_steps!r}")
    if dt_override is not None and not 0 < dt_override < math.inf:
        raise FlowError(f"dt_override must be finite and positive, got {dt_override}")
    if max_change is not None and not 0 < max_change < math.inf:
        raise FlowError(f"max_change must be finite and positive, got {max_change}")
    check_shape(u0.shape, params)
    if params.axis == Axis.X1:
        first, lines = distinct_columns(u0.values)
        # one distinct column steps as a 1-D array, whose strided row pairs
        # numpy runs on its fast path, not its general iterator
        u = u0.values[:, first[0]].copy() if first.size == 1 else np.take(u0.values, first, axis=1)
    else:
        u = np.array(u0.values.T, order="C")
    tmp, finite = np.empty_like(u), np.empty(u.shape, dtype=bool)
    ws = _Workspace(u, u0.dx1, u0.spacing(params.axis), params)
    rhs_of, stable_dt_of = ws.rhs_of, ws.stable_dt_of
    absolute, multiply, add, isfinite = np.absolute, np.multiply, np.add, np.isfinite
    max_of, count, size = np.maximum.reduce, np.count_nonzero, u.size
    t, steps, capped, last_dt, residuals = 0.0, 0, 0, 0.0, []
    u0range = float(np.max(u) - np.min(u))
    # the cap dt <= max_change * u0range / res, as its numerator; res is
    # finite and non-negative where it is compared, so -inf never stops
    cap = max_change * u0range if max_change is not None and u0range > 0 else None
    stop = -math.inf if stop_residual is None else stop_residual
    # max |u0| + the sum of dt * max |rhs| bounds max |u| (see SCAN_FROM)
    bound = float(max_of(absolute(u, tmp), None))
    # overflow in a wildly unstable step surfaces as StabilityError below
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end and steps < max_steps:
            rhs = rhs_of()  # one mobility per step, shared by the rhs and the CFL bound
            res = float(max_of(absolute(rhs, tmp), None))  # NaN and inf propagate
            if not math.isfinite(res):
                raise StabilityError(f"non-finite rhs at step {steps}")
            residuals.append(res)
            if res <= stop:
                break
            dt = min(stable_dt_of() if dt_override is None else dt_override, t_end - t)
            if cap is not None and res > 0 and cap / res < dt:
                dt, capped = cap / res, capped + 1
            multiply(dt, rhs, tmp)
            add(u, tmp, u)  # u + dt * rhs, in place: u is this call's own copy
            bound += dt * res
            if not bound < SCAN_FROM and count(isfinite(u, finite)) < size:
                raise StabilityError(f"non-finite field after step {steps} (dt={dt:g})")
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
    u = np.take(u.reshape(u0.n1, -1), lines, axis=1) if params.axis == Axis.X1 else np.ascontiguousarray(u.T)
    return FlowState(u0.with_values(u), t, steps, last_dt, residuals, truncated, capped)
