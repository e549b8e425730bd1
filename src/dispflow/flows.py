"""Explicit time-stepping of the nonlinear displacement-correction flows.

The flow family is

    du/dt = (-1)^(k-1) * |d1 u|^q * d_i^k( d_i^k u / |d_i^k u|^(2-p) )

with axis i in {X1, X2}, derivative order k in {1, 2}, regularizer power
p in {1, 2} and mobility power q in {1, 2}.  The mobility |d1 u|^q is
always taken along X1; it gates the equation to regions where the field
varies in the x1 direction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import Axis, GridError, ScalarField, diff, norm_linf

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


def _mobility(u: ScalarField, params: FlowParams) -> np.ndarray:
    g1 = diff(u, Axis.X1, 1).values
    return np.abs(g1) ** params.q + params.eps


def _quotient(g: np.ndarray, params: FlowParams) -> np.ndarray:
    if params.p == 2:
        return g
    return g / np.sqrt(g * g + params.beta**2)


def _face_gradient(v: np.ndarray, dx: float) -> np.ndarray:
    """First derivative at the n+1 cell faces along axis 0.

    Interior faces use the compact two-point difference; each boundary face
    copies the nearest interior face, so the flux divergence vanishes at the
    boundary cells.  This keeps affine fields exactly stationary and, unlike
    higher-order flux extrapolation, never injects energy at the boundary."""
    n = v.shape[0]
    g = np.empty((n + 1,) + v.shape[1:])
    g[1:-1] = (v[1:] - v[:-1]) / dx
    g[0] = g[1]
    g[-1] = g[-2]
    return g


def _neumann_d2(v: np.ndarray, dx: float) -> np.ndarray:
    """Second difference along axis 0 with even-reflection ghost cells
    (zero odd derivative at the boundary faces).  The resulting matrix is
    symmetric negative semidefinite, so the composed k=2 operator cannot
    inject energy at the boundary."""
    out = np.empty_like(v)
    h2 = dx * dx
    out[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h2
    out[0] = (v[1] - v[0]) / h2
    out[-1] = (v[-2] - v[-1]) / h2
    return out


def flow_rhs(u: ScalarField, params: FlowParams) -> ScalarField:
    """Right-hand side of the flow evaluated with finite differences.

    k=1 uses a staggered conservative form (flux at cell faces, divergence
    back to centers), which avoids the odd/even decoupling of composed
    wide central stencils; k=2 composes the self-adjoint reflection-BC
    second difference with itself."""
    if params.k == 1:
        v = u.values if params.axis == Axis.X1 else u.values.T
        dx = u.spacing(params.axis)
        flux = _quotient(_face_gradient(v, dx), params)
        outer = (flux[1:] - flux[:-1]) / dx
        if params.axis == Axis.X2:
            outer = outer.T
        sign = 1.0
    else:
        v = u.values if params.axis == Axis.X1 else u.values.T
        dx = u.spacing(params.axis)
        outer = _neumann_d2(_quotient(_neumann_d2(v, dx), params), dx)
        if params.axis == Axis.X2:
            outer = outer.T
        sign = -1.0
    return u.with_values(sign * _mobility(u, params) * outer)


def stable_dt(u: ScalarField, params: FlowParams) -> float:
    """Parabolic CFL bound for the frozen-coefficient linearization.

    dt = cfl * dx_i^(2k) / (2^(2k) * max coefficient), where the local
    coefficient is mobility times the derivative of the p=1 quotient
    (identically 1 for p=2).
    """
    dx = u.spacing(params.axis)
    mob = _mobility(u, params)
    if params.p == 2:
        coeff = mob
    else:
        g = diff(u, params.axis, params.k).values
        b2 = params.beta**2
        coeff = mob * b2 / (g * g + b2) ** 1.5
    cmax = max(float(np.max(coeff)), max(params.eps, DT_FLOOR))
    dt = params.cfl * dx ** (2 * params.k) / (2 ** (2 * params.k) * cmax)
    return float(min(dt, params.dt_max))


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
    drops below stop_residual (if given).  A step producing a non-finite
    field raises StabilityError.  Stopping at max_steps short of t_end
    emits a RuntimeWarning that gives the time reached.

    max_change additionally caps each step so no sample moves by more than
    that fraction of the initial dynamic range; the frozen-coefficient CFL
    bound alone can admit huge steps for the saturated p=1 quotient.
    """
    if not np.isfinite(t_end) and stop_residual is None:
        raise FlowError("t_end must be finite unless stop_residual is set")
    if t_end < 0:
        raise FlowError("t_end must be non-negative")
    state = FlowState(u=u0)
    u0range = float(np.max(u0.values) - np.min(u0.values))
    # overflow in a wildly unstable step surfaces as StabilityError below
    with np.errstate(over="ignore", invalid="ignore"):
        while state.t < t_end and state.steps < max_steps:
            try:
                rhs = flow_rhs(state.u, params)
            except GridError as exc:
                # overflow inside the rhs (e.g. after a wildly unstable step)
                raise StabilityError(
                    f"non-finite rhs at step {state.steps}: {exc}"
                ) from exc
            res = norm_linf(rhs)
            state.residuals.append(res)
            if stop_residual is not None and res <= stop_residual:
                break
            base_dt = dt_override if dt_override is not None else stable_dt(state.u, params)
            dt = min(base_dt, t_end - state.t)
            if max_change is not None and res > 0 and u0range > 0:
                dt = min(dt, max_change * u0range / res)
            new_values = state.u.values + dt * rhs.values
            if not np.all(np.isfinite(new_values)):
                raise StabilityError(
                    f"non-finite field after step {state.steps} (dt={dt:g})"
                )
            state.u = state.u.with_values(new_values)
            state.t += dt
            state.steps += 1
            state.last_dt = dt
    if state.steps >= max_steps and state.t < t_end:
        warnings.warn(
            f"evolve stopped at max_steps={max_steps}: "
            f"t = {state.t:.6g} of t_end = {t_end:.6g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return state
