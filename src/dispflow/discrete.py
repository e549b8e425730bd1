"""Discrete displacement correction: exhaustive row-jitter search and a
greedy block heuristic for column displacements.

Conventions follow the field layout values[i1, i2]: a "row" is an x2-line
(fixed i2, shifted along i1 by jitter d2(x2)); a "column" is an x1-line
(fixed i1, displaced by d1(x1))."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grid import ScalarField


class DiscreteError(ValueError):
    pass


@dataclass(frozen=True)
class IntShiftField:
    """Per-line integer displacements with |d_j| <= bound."""

    shifts: np.ndarray
    bound: int

    def __post_init__(self):
        s = np.asarray(self.shifts, dtype=np.int64)
        if np.any(np.abs(s) > self.bound):
            raise DiscreteError("shift exceeds bound")
        object.__setattr__(self, "shifts", s)

    def to_csv(self) -> str:
        lines = ["index,shift"]
        lines += [f"{j},{int(s)}" for j, s in enumerate(self.shifts)]
        return "\n".join(lines) + "\n"


def shift_line(v: np.ndarray, s: int) -> np.ndarray:
    """Shift a 1D array by s samples (content moves toward higher indices
    for s > 0), filling exposed entries by edge replication."""
    if s == 0:
        return v.copy()
    out = np.empty_like(v)
    if s > 0:
        out[s:] = v[:-s]
        out[:s] = v[0]
    else:
        out[:s] = v[-s:]
        out[s:] = v[-1]
    return out


def check_jitter_bound(M: int, n1: int):
    """jitter_correct_rows' limits on M for rows of n1 samples: each row
    shifts by at most M within its samples, so 0 <= M < n1."""
    if M < 0:
        raise DiscreteError("M must be non-negative")
    if M >= n1:
        raise DiscreteError(
            f"M must be smaller than the field's samples along x1, n1 = {n1}, got {M}")


def check_assign_bound(M: int, n1: int):
    """block_assign_columns' limits on M for n1 columns: it reorders blocks
    of M columns, so 1 <= M <= n1."""
    if M < 1:
        raise DiscreteError("M must be at least 1")
    if M > n1:
        raise DiscreteError(f"M must not exceed the field's samples along x1, n1 = {n1}, got {M}")


def _candidate_shifts(M: int):
    # ties break toward smaller |s|, then toward negative s
    return sorted(range(-M, M + 1), key=lambda s: (abs(s), s))


def jitter_correct_rows(
    img: ScalarField, M: int, k: int = 1
) -> tuple[ScalarField, IntShiftField]:
    """Sequential exhaustive search over per-row shifts in [-M, M].

    Rows (x2-lines) are processed in order; each row takes the shift that
    minimizes the squared order-k finite difference against the already
    corrected predecessor row(s).  O(M * n * width) total work.

    All 2M+1 candidates of a row come from one take through an index table
    clip(i - s, 0, n1 - 1) built once, which is shift_line for every s.
    Their differences are broadcast with the operations, in the order, of
    one candidate at a time, their costs come from one stacked product,
    and they are scanned in _candidate_shifts order with one tie rule.
    """
    check_jitter_bound(M, img.n1)
    if k not in (1, 2):
        raise DiscreteError("k must be 1 or 2")
    v = img.values
    n_rows = img.n2
    out = np.empty_like(v)
    shifts = np.zeros(n_rows, dtype=np.int64)
    out[:, 0] = v[:, 0]
    cands = _candidate_shifts(M)
    index = np.clip(np.arange(img.n1) - np.array(cands)[:, None], 0, img.n1 - 1)
    for j in range(1, n_rows):
        rows = v[:, j].take(index)  # rows[c] = shift_line(v[:, j], cands[c])
        if k == 1 or j == 1:
            d = rows - out[:, j - 1]
        else:
            d = rows - 2.0 * out[:, j - 1] + out[:, j - 2]
        costs = np.matmul(d[:, None, :], d[:, :, None]).ravel().tolist()
        best, best_cost = 0, None
        for c, cost in enumerate(costs):
            if best_cost is None or cost < best_cost - 1e-12 * max(best_cost, 1.0):
                best, best_cost = c, cost
        shifts[j] = cands[best]
        out[:, j] = rows[best]
    return img.with_values(out), IntShiftField(shifts, M)


def column_cost(values: np.ndarray, k: int) -> float:
    """Squared order-k difference across columns (x1-lines)."""
    if k == 1:
        d = values[1:] - values[:-1]
    else:
        d = values[2:] - 2.0 * values[1:-1] + values[:-2]
    return float(np.sum(d * d))


def _row_distances(v: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Squared distances between rows start-1 .. stop of v, the block and one
    neighbour on each side, as table indices 0 .. stop-start+1; a neighbour
    outside v is a zero row and column, so the terms it would enter vanish.
    Each entry sums explicit squared differences, so nothing cancels."""
    lo, hi = max(start - 1, 0), min(stop + 1, len(v))
    w = v[lo:hi]
    d = w[:, None] - w[None]
    off = 1 - (start - lo)
    dist = np.zeros((stop - start + 2,) * 2)
    dist[off : off + len(w), off : off + len(w)] = np.sum(d * d, axis=-1)
    return dist


def _swap_gains_k1(dist: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Drop in the order-1 cost from swapping table rows a < b: only the
    differences to their neighbours change, and for b = a + 1 the a-b
    difference itself stays."""
    adj = b == a + 1
    old = dist[a - 1, a] + dist[b, b + 1] + np.where(adj, 0.0, dist[a, a + 1] + dist[b - 1, b])
    new = dist[a - 1, b] + dist[a, b + 1] + np.where(adj, 0.0, dist[b, a + 1] + dist[b - 1, a])
    return old - new


def _swap_gains_k2(v: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Drop in the order-2 cost from swapping rows a < b of v: only the
    terms v[t+2] - 2 v[t+1] + v[t] with t in a-2 .. a or b-2 .. b change,
    each counted once."""
    t = np.concatenate([a[:, None] + np.arange(-2, 1), b[:, None] + np.arange(-2, 1)], axis=1)
    keep = (t >= 0) & (t <= len(v) - 3)
    keep[:, 3:] &= t[:, 3:] > a[:, None]
    t = np.clip(t, 0, len(v) - 3)
    a, b = a[:, None], b[:, None]

    def terms(r0, r1, r2):
        d = v[r2] - 2.0 * v[r1] + v[r0]
        return np.sum(d * d, axis=-1)

    def swap(r):
        return np.where(r == a, b, np.where(r == b, a, r))

    old = terms(slice(None, -2), slice(1, -1), slice(2, None))[t]
    new = terms(swap(t), swap(t + 1), swap(t + 2))
    return np.sum((old - new) * keep, axis=1)


def block_assign_columns(
    img: ScalarField, M: int, k: int = 1
) -> tuple[ScalarField, IntShiftField]:
    """Greedy best-swap reordering of columns within width-M blocks.

    Heuristic for the column-displacement assignment problem: within each
    block, repeatedly apply the swap that most reduces the order-k
    column-difference cost until no improving swap remains.  The objective
    never increases; the result is deterministic.

    Pairs are scanned in itertools.combinations order and the first of
    near-equal gains wins, as in a full recount of column_cost per pair;
    the gains come only from the terms a swap changes (for k=1 from one
    table of row distances per block), and the tie margin from the full
    cost once per round.
    """
    check_assign_bound(M, img.n1)
    if k not in (1, 2):
        raise DiscreteError("k must be 1 or 2")
    v = img.values.copy()
    n = img.n1
    perm = np.arange(n)
    for start in range(0, n, M):
        stop = min(start + M, n)
        if stop - start < 2:
            continue
        a, b = np.array(list(itertools.combinations(range(start, stop), 2))).T
        dist = _row_distances(v, start, stop) if k == 1 else None
        while True:
            if k == 1:
                gains = _swap_gains_k1(dist, a - start + 1, b - start + 1)
            else:
                gains = _swap_gains_k2(v, a, b)
            tol = 1e-12 * max(column_cost(v, k), 1.0)
            best, best_gain = None, 0.0
            for i, gain in enumerate(gains.tolist()):
                if gain > best_gain + tol:
                    best, best_gain = i, gain
            if best is None:
                break
            x, y = a[best], b[best]
            v[[x, y]] = v[[y, x]]
            perm[[x, y]] = perm[[y, x]]
            if k == 1:
                i, j = x - start + 1, y - start + 1
                dist[[i, j]] = dist[[j, i]]
                dist[:, [i, j]] = dist[:, [j, i]]
    shifts = perm - np.arange(n)
    return img.with_values(v), IntShiftField(shifts, M)
