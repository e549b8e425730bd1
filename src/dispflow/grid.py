"""2D scalar fields on a uniform grid and finite-difference derivatives."""

from __future__ import annotations

import math
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
    x2 = (i2 + 1/2) * dx2.  All values must be finite, and each spacing
    non-negative and finite; a spacing of 0 (the default) is unset and
    becomes 1/n along its axis.
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
        if 0 in v.shape:
            raise GridError(f"expected a non-empty grid, got shape {v.shape}")
        object.__setattr__(self, "values", v)
        for name, n in (("dx1", v.shape[0]), ("dx2", v.shape[1])):
            dx = getattr(self, name)
            if not 0.0 <= dx < math.inf:
                raise GridError(f"{name} must be non-negative and finite, got {dx}")
            if dx == 0.0:  # unset: spacing 1/n per axis (unit square)
                object.__setattr__(self, name, 1.0 / n)

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


def row_pair(v: np.ndarray, i: int, j: int) -> np.ndarray:
    """Rows i and j of v as one (2, ...) view, so a stencil's two boundary
    rows are computed by one batched expression; v may be 1-D."""
    if i == j:
        return np.broadcast_to(v[i : i + 1], (2,) + v.shape[1:])
    return v[i :: j - i][:2]


def distinct_columns(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) for the distinct columns of a 2D array: v[:, first]
    holds each distinct column once, and v[:, first][:, inverse] is v.

    Columns are grouped by their bytes, a void view of the contiguous
    transpose, so -0.0 and 0.0 stay apart and a column only joins a group
    whose every sample it equals bit for bit."""
    cols = np.ascontiguousarray(v.T)  # the bytes of each column as one key
    keys = cols.view(np.dtype((np.void, cols[0].nbytes))).ravel()
    return np.unique(keys, return_index=True, return_inverse=True)[1:]


# coefficients of the one-sided order-1 boundary stencils, one entry per end:
# out[0] = (-1.5 v0 + 2 v1 - 0.5 v2) / dx, out[-1] = (0.5 v-3 - 2 v-2 + 1.5 v-1) / dx
_D1_ENDS = ((-1.5, 0.5), (2.0, -2.0), (-0.5, 1.5))


def diff_axis0_kernel(v: np.ndarray, dx: float, k: int, out: np.ndarray) -> list:
    """The order-k difference along axis 0 of a raw 1-D or 2-D array v into
    out, as a list of bound calls, (function, positional arguments)
    pairs run in order: the one definition of the stencils behind diff(),
    diff_matrix() and the flows' mobility.  Its views of v and out, its
    scalars (0-d float64 arrays, the same IEEE operands as Python floats)
    and its two end-row temporaries are built here, once, so running it
    allocates nothing and reads v's current values.

    Central second-order stencils in the interior, second-order one-sided
    stencils at the two boundary samples (exact on polynomials of degree
    <= 2).  Both boundary rows are computed in one batched expression;
    x + (-c) * y == x - c * y exactly, so each keeps the operations and
    their order of the scalar formula in the comments.  For a 1-D v and
    k = 1 that expression is one call of that formula in Python floats,
    the same IEEE operations on two samples (unless its divisor is 0,
    which numpy divides by and Python does not).  The caller checks that
    axis 0 holds at least 2k+1 samples.
    """
    n = v.shape[0]
    mid, ends = out[1:-1], out[:: n - 1]
    sub, add, mul, div = np.subtract, np.add, np.multiply, np.divide
    if k == 1:
        # out[1:-1] = (v[2:] - v[:-2]) / (2 dx)
        interior = [(sub, (v[2:], v[:-2], mid)), (div, (mid, np.array(2.0 * dx), mid))]
        if v.ndim == 1 and dx != 0:
            head, tail, dx = v[:3], v[-3:], float(dx)

            def scalar_ends():
                a, b, c = head.tolist()
                x, y, z = tail.tolist()
                out[0] = (-1.5 * a + 2.0 * b - 0.5 * c) / dx
                out[-1] = (0.5 * x - 2.0 * y + 1.5 * z) / dx
            return interior + [(scalar_ends, ())]
        e, tmp = np.empty((2, 2) + v.shape[1:])
        c0, c1, c2 = (np.reshape(c, (2,) + (1,) * (v.ndim - 1)) for c in _D1_ENDS)
        p0, p1, p2 = (row_pair(v, i, n - 3 + i) for i in range(3))
        return interior + [(mul, (c0, p0, e)), (mul, (c1, p1, tmp)), (add, (e, tmp, e)),
                           (mul, (c2, p2, tmp)), (add, (e, tmp, e)), (div, (e, np.array(dx), ends))]
    # out[1:-1] = (v[2:] - 2 v[1:-1] + v[:-2]) / dx^2
    # out[0] = (2 v0 - 5 v1 + 4 v2 - v3) / dx^2, and mirrored at the end
    h2, two, five, four = (np.array(c) for c in (dx * dx, 2.0, 5.0, 4.0))
    interior = [(mul, (two, v[1:-1], mid)), (sub, (v[2:], mid, mid)),
                (add, (mid, v[:-2], mid)), (div, (mid, h2, mid))]
    e, tmp = np.empty((2, 2) + v.shape[1:])
    p0, p1, p2, p3 = (row_pair(v, i, n - 1 - i) for i in range(4))
    return interior + [(mul, (two, p0, e)), (mul, (five, p1, tmp)), (sub, (e, tmp, e)),
                       (mul, (four, p2, tmp)), (add, (e, tmp, e)), (sub, (e, p3, e)),
                       (div, (e, h2, ends))]


def diff_axis0(v: np.ndarray, dx: float, k: int) -> np.ndarray:
    """Order-k difference along axis 0 of a raw 2D array, as a new array;
    see diff_axis0_kernel."""
    out = np.empty_like(v)
    for f, args in diff_axis0_kernel(v, dx, k, out):
        f(*args)
    return out


@lru_cache(maxsize=64)
def diff_matrix(n: int, dx: float, k: int) -> np.ndarray:
    """Dense n x n matrix of the 1D order-k difference used by diff().

    Read-only: every call with the same arguments returns the one cached
    array."""
    _check_order(k)
    if n < 2 * k + 1:
        raise GridError(f"n={n} too small for order-{k} stencil")
    D = diff_axis0(np.eye(n), dx, k)
    D.flags.writeable = False
    return D


def diff(f: ScalarField, axis: Axis, order: int = 1) -> ScalarField:
    """Finite-difference derivative of the given order along one axis."""
    _check_order(order)
    _check_size(f, axis, order)
    if axis == Axis.X1:
        return f.with_values(diff_axis0(f.values, f.dx1, order))
    # difference a contiguous transpose, then return the result in C order:
    # cheaper than writing through the strided rows of a transposed view
    out = diff_axis0(np.ascontiguousarray(f.values.T), f.dx2, order)
    return f.with_values(np.ascontiguousarray(out.T))


def norm_l2(f: ScalarField) -> float:
    """Grid-weighted L2 norm: sqrt(sum dx1*dx2*f^2) (midpoint quadrature)."""
    return float(np.sqrt(f.dx1 * f.dx2 * np.sum(f.values**2)))


def norm_linf(f: ScalarField) -> float:
    return float(np.max(np.abs(f.values))) if f.values.size else 0.0
