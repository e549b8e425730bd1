"""2D scalar fields on a uniform grid and finite-difference derivatives."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache

import numpy as np


class Axis(IntEnum):
    """Coordinate axis: X1 is the first index (beam angle in tomography),
    X2 the second (detector offset)."""

    X1 = 0
    X2 = 1


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class ScalarField:
    """Real-valued samples on a uniform cell-centered grid.

    values[i1, i2] is the sample at x1 = (i1 + 1/2) * dx1,
    x2 = (i2 + 1/2) * dx2.  All values must be finite.
    """

    values: np.ndarray
    dx1: float = field(default=0.0)
    dx2: float = field(default=0.0)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise GridError(f"expected 2D values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise GridError("field contains non-finite values")
        object.__setattr__(self, "values", v)
        # default spacing 1/n per axis (unit square)
        if self.dx1 <= 0.0:
            object.__setattr__(self, "dx1", 1.0 / v.shape[0])
        if self.dx2 <= 0.0:
            object.__setattr__(self, "dx2", 1.0 / v.shape[1])

    @property
    def n1(self) -> int:
        return self.values.shape[0]

    @property
    def n2(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self):
        return self.values.shape

    def spacing(self, axis: Axis) -> float:
        return self.dx1 if axis == Axis.X1 else self.dx2

    def with_values(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(values, self.dx1, self.dx2)

    def coords(self, axis: Axis) -> np.ndarray:
        n = self.shape[int(axis)]
        d = self.spacing(axis)
        return (np.arange(n) + 0.5) * d


def _check_order(k: int):
    if k not in (1, 2):
        raise GridError(f"derivative order must be 1 or 2, got {k}")


def _check_size(f: ScalarField, axis: Axis, k: int):
    n = f.shape[int(axis)]
    if n < 2 * k + 1:
        raise GridError(
            f"axis {axis.name} has {n} samples, need at least {2 * k + 1} "
            f"for an order-{k} derivative"
        )


def diff_axis0(v: np.ndarray, dx: float, k: int) -> np.ndarray:
    """Order-k difference along axis 0 of a raw array: the one definition
    of the stencils behind diff() and diff_matrix().

    Central second-order stencils in the interior, second-order one-sided
    stencils at the two boundary samples (exact on polynomials of degree
    <= 2).  The caller checks that axis 0 holds at least 2k+1 samples.
    """
    out = np.empty_like(v)
    if k == 1:
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
        out[0] = (-1.5 * v[0] + 2.0 * v[1] - 0.5 * v[2]) / dx
        out[-1] = (0.5 * v[-3] - 2.0 * v[-2] + 1.5 * v[-1]) / dx
    else:
        h2 = dx * dx
        out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return out


@lru_cache(maxsize=64)
def diff_matrix(n: int, dx: float, k: int) -> np.ndarray:
    """Dense n x n matrix of the 1D order-k difference used by diff()."""
    _check_order(k)
    if n < 2 * k + 1:
        raise GridError(f"n={n} too small for order-{k} stencil")
    return diff_axis0(np.eye(n), dx, k)


def diff(f: ScalarField, axis: Axis, order: int = 1) -> ScalarField:
    """Finite-difference derivative of the given order along one axis."""
    _check_order(order)
    _check_size(f, axis, order)
    if axis == Axis.X1:
        return f.with_values(diff_axis0(f.values, f.dx1, order))
    return f.with_values(diff_axis0(f.values.T, f.dx2, order).T)


def norm_l2(f: ScalarField) -> float:
    """Grid-weighted L2 norm: sqrt(sum dx1*dx2*f^2) (midpoint quadrature)."""
    return float(np.sqrt(f.dx1 * f.dx2 * np.sum(f.values**2)))


def norm_linf(f: ScalarField) -> float:
    return float(np.max(np.abs(f.values))) if f.values.size else 0.0
