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

from .grid import Axis, GridError, ScalarField, diff_axis0

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


def _mobility(u: np.ndarray, dx1: float, params: FlowParams) -> np.ndarray:
    return np.abs(diff_axis0(u, dx1, 1)) ** params.q + params.eps


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


def _rhs(u: np.ndarray, mob: np.ndarray, dx: float, params: FlowParams) -> np.ndarray:
    """Right-hand side on raw arrays, given the mobility of u.

    k=1 uses a staggered conservative form (flux at cell faces, divergence
    back to centers), which avoids the odd/even decoupling of composed
    wide central stencils; k=2 composes the self-adjoint reflection-BC
    second difference with itself."""
    v = u if params.axis == Axis.X1 else u.T
    if params.k == 1:
        flux = _quotient(_face_gradient(v, dx), params)
        outer = (flux[1:] - flux[:-1]) / dx
        sign = 1.0
    else:
        outer = _neumann_d2(_quotient(_neumann_d2(v, dx), params), dx)
        sign = -1.0
    if params.axis == Axis.X2:
        outer = outer.T
    return sign * mob * outer


def _stable_dt(u: np.ndarray, mob: np.ndarray, dx: float, params: FlowParams) -> float:
    """Parabolic CFL bound for the frozen-coefficient linearization.

    dt = cfl * dx_i^(2k) / (2^(2k) * max coefficient), where the local
    coefficient is mobility times the derivative of the p=1 quotient
    (identically 1 for p=2).
    """
    if params.p == 2:
        coeff = mob
    else:
        if params.axis == Axis.X1:
            g = diff_axis0(u, dx, params.k)
        else:
            g = diff_axis0(u.T, dx, params.k).T
        b2 = params.beta**2
        coeff = mob * b2 / (g * g + b2) ** 1.5
    cmax = max(float(np.max(coeff)), max(params.eps, DT_FLOOR))
    dt = params.cfl * dx ** (2 * params.k) / (2 ** (2 * params.k) * cmax)
    return float(min(dt, params.dt_max))


def flow_rhs(u: ScalarField, params: FlowParams) -> ScalarField:
    """Right-hand side of the flow evaluated with finite differences."""
    _check_shape(u.shape, params)
    mob = _mobility(u.values, u.dx1, params)
    return u.with_values(_rhs(u.values, mob, u.spacing(params.axis), params))


def stable_dt(u: ScalarField, params: FlowParams) -> float:
    """Parabolic CFL bound of the explicit step at u (see _stable_dt)."""
    _check_shape(u.shape, params)
    mob = _mobility(u.values, u.dx1, params)
    return _stable_dt(u.values, mob, u.spacing(params.axis), params)


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

    The loop runs on plain arrays and computes the mobility once per step
    for both the rhs and the CFL bound; only the result is a ScalarField.

    max_change additionally caps each step so no sample moves by more than
    that fraction of the initial dynamic range; the frozen-coefficient CFL
    bound alone can admit huge steps for the saturated p=1 quotient.
    """
    if not np.isfinite(t_end) and stop_residual is None:
        raise FlowError("t_end must be finite unless stop_residual is set")
    if t_end < 0:
        raise FlowError("t_end must be non-negative")
    _check_shape(u0.shape, params)
    u, dx1, dx = u0.values, u0.dx1, u0.spacing(params.axis)
    t, steps, last_dt, residuals = 0.0, 0, 0.0, []
    u0range = float(np.max(u) - np.min(u))
    # overflow in a wildly unstable step surfaces as StabilityError below
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end and steps < max_steps:
            # one mobility per step, shared by the rhs and the CFL bound
            mob = _mobility(u, dx1, params)
            rhs = _rhs(u, mob, dx, params)
            res = float(np.max(np.abs(rhs)))  # NaN and inf propagate
            if not math.isfinite(res):
                raise StabilityError(f"non-finite rhs at step {steps}")
            residuals.append(res)
            if stop_residual is not None and res <= stop_residual:
                break
            base_dt = dt_override if dt_override is not None else _stable_dt(u, mob, dx, params)
            dt = min(base_dt, t_end - t)
            if max_change is not None and res > 0 and u0range > 0:
                dt = min(dt, max_change * u0range / res)
            new_values = u + dt * rhs
            if not np.all(np.isfinite(new_values)):
                raise StabilityError(f"non-finite field after step {steps} (dt={dt:g})")
            u = new_values
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
    return FlowState(u0.with_values(u), t, steps, last_dt, residuals, truncated)
