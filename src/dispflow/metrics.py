"""Image quality metrics and shape statistics for the property experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import ScalarField


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class MetricReport:
    rmse: float
    psnr: float
    rel_l2: float
    extras: dict | None = None

    def lines(self):
        out = [
            f"rmse={self.rmse:.8g}",
            f"psnr={self.psnr:.8g}",
            f"rel_l2={self.rel_l2:.8g}",
        ]
        if self.extras:
            out += [f"{k}={v:.8g}" for k, v in self.extras.items()]
        return out


def metrics(a: ScalarField, b: ScalarField, extras: dict | None = None) -> MetricReport:
    """RMSE, PSNR and relative L2 error of a against reference b."""
    if a.shape != b.shape:
        raise MetricError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = a.values - b.values
    rmse = float(np.sqrt(np.mean(d * d)))
    rng = float(np.max(b.values) - np.min(b.values))
    if rmse == 0.0:
        psnr = math.inf
    elif rng == 0.0:
        psnr = -math.inf
    else:
        psnr = 20.0 * math.log10(rng / rmse)
    bnorm = float(np.linalg.norm(b.values))
    if bnorm == 0.0 and np.any(d):
        raise MetricError("relative L2 undefined: reference is identically zero")
    rel = float(np.linalg.norm(d) / bnorm) if bnorm > 0 else 0.0
    return MetricReport(rmse, psnr, rel, extras)


def _crossings(line: np.ndarray, level: float) -> np.ndarray:
    """Sub-sample positions where the profile crosses the given level."""
    above = line >= level
    i = np.flatnonzero(above[:-1] != above[1:])
    return i + (level - line[i]) / (line[i + 1] - line[i])


def strip_fwhm(f: ScalarField, axis_of_profile: int = 0) -> np.ndarray:
    """Full width at half maximum of the bright strip, one value per line.

    Profiles run along the given array axis; lines without a full pair of
    half-max crossings report NaN."""
    v = f.values if axis_of_profile == 0 else f.values.T
    lo = float(np.min(v))
    widths = np.full(v.shape[1], np.nan)
    for j in range(v.shape[1]):
        line = v[:, j]
        half = lo + 0.5 * (float(np.max(line)) - lo)
        pos = _crossings(line, half)
        if pos.size >= 2:
            widths[j] = pos[-1] - pos[0]
    return widths


def interface_positions(f: ScalarField) -> np.ndarray:
    """Per-row x1-position (in samples) of the mid-level interface.

    Each x2-row is scanned along x1 for its first crossing of the global
    mid level; rows with no crossing report NaN."""
    v = f.values
    mid = 0.5 * (float(np.min(v)) + float(np.max(v)))
    pos = np.full(v.shape[1], np.nan)
    for j in range(v.shape[1]):
        cr = _crossings(v[:, j], mid)
        if cr.size:
            pos[j] = cr[0]
    return pos


def interface_variance(f: ScalarField) -> float:
    """Variance of the interface x1-position across rows (NaN rows dropped)."""
    pos = interface_positions(f)
    pos = pos[np.isfinite(pos)]
    if pos.size < 2:
        raise MetricError("no interface found")
    return float(np.var(pos))
