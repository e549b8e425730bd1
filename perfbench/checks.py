"""Correctness checks for the benchmark, computed apart from dispflow.

Nothing here imports the package under test: the phantom, its line
integrals, the difference matrix and every shape statistic are rebuilt
from their definitions with numpy alone.  Each check raises CheckFailed
with a one-line reason; the runner collects the reasons after every pass.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    pass


def require(ok, message: str):
    if not ok:
        raise CheckFailed(message)


# ------------------------------------------------------------ references

# High-contrast Shepp-Logan: (intensity, a, b, x0, y0, phi in degrees).
# The image covers [-1, 1]^2; the first array index runs along x.
SHEPP_LOGAN = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.2, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.2, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.1, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.1, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.1, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.1, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.1, 0.023, 0.023, 0.0, -0.605, 0.0),
    (0.1, 0.023, 0.046, 0.06, -0.605, 0.0),
)


def phantom(n: int) -> np.ndarray:
    """n x n cell-centred rasterisation of the ten ellipses."""
    c = (np.arange(n) + 0.5) * (2.0 / n) - 1.0
    x, y = np.meshgrid(c, c, indexing="ij")
    img = np.zeros((n, n))
    for rho, a, b, x0, y0, phi in SHEPP_LOGAN:
        t = math.radians(phi)
        xr = (x - x0) * math.cos(t) + (y - y0) * math.sin(t)
        yr = -(x - x0) * math.sin(t) + (y - y0) * math.cos(t)
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += rho
    return img


def detector_offsets(n: int) -> np.ndarray:
    """Odd number of offsets spanning the image diagonal [-sqrt 2, sqrt 2]."""
    return np.linspace(-math.sqrt(2.0), math.sqrt(2.0), math.ceil(n * math.sqrt(2.0)) | 1)


def line_integrals(theta, offsets) -> np.ndarray:
    """Exact ray sums of the phantom on the lines x cos(t) + y sin(t) = l.

    An ellipse with semi-axes a, b turned by phi has support half-width
    s(t) = sqrt(a^2 cos^2(t - phi) + b^2 sin^2(t - phi)) and chord
    2 a b sqrt(s^2 - l'^2) / s^2 at distance l' from its centre."""
    th = np.asarray(theta, dtype=float)[:, None]
    off = np.asarray(offsets, dtype=float)[None, :]
    out = np.zeros((th.shape[0], off.shape[1]))
    for rho, a, b, x0, y0, phi in SHEPP_LOGAN:
        p = math.radians(phi)
        s2 = (a * np.cos(th - p)) ** 2 + (b * np.sin(th - p)) ** 2
        lc = off - (x0 * np.cos(th) + y0 * np.sin(th))
        inside = np.maximum(s2 - lc * lc, 0.0)
        out += 2.0 * rho * a * b * np.sqrt(inside) / s2
    return out


def diff_matrix(n: int, dx: float) -> np.ndarray:
    """First difference: central inside, second-order one-sided at both ends."""
    D = np.zeros((n, n))
    i = np.arange(1, n - 1)
    D[i, i - 1] = -0.5
    D[i, i + 1] = 0.5
    D[0, :3] = (-1.5, 2.0, -0.5)
    D[-1, -3:] = (0.5, -2.0, 1.5)
    return D / dx


def shift_line(v: np.ndarray, s: int) -> np.ndarray:
    """v moved by s samples toward higher indices, edges replicated."""
    idx = np.clip(np.arange(len(v)) - s, 0, len(v) - 1)
    return v[idx]


def crossings(line: np.ndarray, level: float) -> list:
    """Linearly interpolated positions where line crosses level."""
    above = line >= level
    out = []
    for i in np.flatnonzero(above[1:] != above[:-1]):
        out.append(i + (level - line[i]) / (line[i + 1] - line[i]))
    return out


def fwhm(profile: np.ndarray) -> float:
    lo = float(profile.min())
    cr = crossings(profile, lo + 0.5 * (float(profile.max()) - lo))
    require(len(cr) >= 2, "strip profile has no half-maximum crossings")
    return cr[-1] - cr[0]


def interface_variance(v: np.ndarray) -> float:
    """Variance over x2 of the first x1-crossing of the mid level."""
    mid = 0.5 * (float(v.min()) + float(v.max()))
    pos = [cr[0] for cr in (crossings(v[:, j], mid) for j in range(v.shape[1])) if cr]
    require(len(pos) >= 2, "no interface found")
    return float(np.var(pos))


def column_cost(v: np.ndarray) -> float:
    d = v[1:] - v[:-1]
    return float(np.sum(d * d))


# ------------------------------------------------------------ checks

#: relative L2 distance between the ray-driven projection of the 128-pixel
#: phantom and the exact line integrals: 0.032-0.034 at the true angles
#: theta + d, 0.052-0.13 at theta or theta + a/2 (a = pi/30 and pi/18)
SINOGRAM_TOL = 0.042


def check_sinogram(values, theta, offsets, noise_sigma: float = 0.0):
    """values are the line integrals at theta (the true, perturbed angles)."""
    ref = line_integrals(theta, offsets)
    require(values.shape == ref.shape, f"sinogram shape {values.shape} != {ref.shape}")
    ref_norm = float(np.linalg.norm(ref))
    # white noise adds sigma * sqrt(N) to the distance, in quadrature
    tol = math.hypot(SINOGRAM_TOL, noise_sigma * math.sqrt(ref.size) / ref_norm)
    err = float(np.linalg.norm(values - ref)) / ref_norm
    require(err <= tol, f"sinogram off the exact line integrals: rel L2 {err:.4f} > {tol:.4f}")


def check_noise(noise, clean_max: float, rel_sigma: float):
    """noise = noisy minus noise-free sinogram: zero mean, std rel_sigma * max.

    clean_max is read off the noise-free sinogram: the exact line integrals
    peak on rays tangent to the thin skull rim, 4% above the rasterised
    phantom's projection."""
    sigma = rel_sigma * clean_max
    n = noise.size
    mean, std = float(noise.mean()), float(noise.std())
    require(abs(mean) <= 5.0 * sigma / math.sqrt(n), f"noise mean {mean:.3g} is not zero")
    # the sample std has relative error 1/sqrt(2n) (0.55% at 90 x 183), and
    # the maximum of a jittered sinogram is within 1.2% of the clean one
    require(abs(std / sigma - 1.0) <= 0.04, f"noise std {std:.4g}, expected {sigma:.4g}")


def check_rmse(reported: float, recon, reference):
    rmse = float(np.sqrt(np.mean((recon - reference) ** 2)))
    require(
        abs(reported - rmse) <= 1e-7 * rmse,
        f"metrics.csv rmse {reported!r} != recomputed {rmse!r}",
    )


def check_max_principle(raw, corrected):
    """Every column along axis 0 stays inside its raw range."""
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    slack = 1e-12 * max(float(np.ptp(raw)), 1.0)
    over = max(float(np.max(corrected - hi)), float(np.max(lo - corrected)))
    require(over <= slack, f"flow output leaves its raw column range by {over:.3g}")


def check_block_permutation(raw, out, M: int):
    """out reorders the rows of raw within blocks of M and lowers the cost."""
    require(raw.shape == out.shape, "reordered shape differs from the input")
    for start in range(0, raw.shape[0], M):
        a = raw[start : start + M]
        b = out[start : start + M]
        ka = np.lexsort(a.T[::-1])
        kb = np.lexsort(b.T[::-1])
        require(
            np.array_equal(a[ka], b[kb]),
            f"rows {start}..{start + len(a) - 1} are not a permutation of the input block",
        )
    before, after = column_cost(raw), column_cost(out)
    require(
        after <= before * (1 + 1e-12),
        f"block reordering raised the column cost {before:.6g} -> {after:.6g}",
    )


def check_strip(before, after):
    """fig2: the strip widens by a pixel and stays constant along x2."""
    spread = float(np.max(np.abs(after - after[:, :1])))
    require(spread <= 1e-12 * float(np.ptp(before)), f"x2-columns differ by {spread:.3g}")
    growth = fwhm(after[:, 0]) - fwhm(before[:, 0])
    require(growth >= 1.0, f"strip FWHM grew by {growth:.3f} px, expected >= 1")


def check_interface(before, after):
    """fig3: interface variance falls tenfold; values stay in the input range."""
    ratio = interface_variance(before) / max(interface_variance(after), 1e-300)
    require(ratio >= 10.0, f"interface variance fell only {ratio:.3g}x")
    slack = 1e-12 * float(np.ptp(before))
    require(
        after.min() >= before.min() - slack and after.max() <= before.max() + slack,
        "interface values leave the input range",
    )


def check_descent(fc, reg, du_l2, grad_linf, eps: float, q: int):
    """Fc and R do not rise, and each step lowers Fc by at least
    ||u_m - u_(m-1)||^2 / (2 max w), w = C^q + eps with C = max |d1 u|.

    Fc(u_m; u_m) = alpha R(u_m) <= Fc(u_m; u_(m-1)), and Fc(.; u_m) is
    strongly convex with modulus 1 / max w, so its minimiser u_(m+1) lies
    below that by at least the quadratic term."""
    fc, reg = np.asarray(fc), np.asarray(reg)
    for name, col in (("Fc", fc), ("R", reg)):
        rise = float(np.max((col[1:] - col[:-1]) / np.maximum(np.abs(col[:-1]), 1.0)))
        require(rise <= 1e-9, f"{name} rose by {rise:.3g} (relative) between iterations")
    C = max(grad_linf)
    bound = 1.0 / (2.0 * (C**q + eps))
    du = np.asarray(du_l2)
    slack = float(np.max(bound * du[1:] ** 2 - (fc[:-1] - fc[1:])))
    require(
        slack <= 1e-9 * max(abs(float(fc[0])), 1.0),
        f"descent inequality fails by {slack:.3g}",
    )


def check_optimality(v, u, dx1: float, alpha: float, eps: float, q: int):
    """u minimises Fc(.; v) for p=2 along x1: (u - v) + alpha w(v) D^T D u = 0."""
    D = diff_matrix(v.shape[0], dx1)
    g = D @ v
    w = (g * g if q == 2 else np.abs(g)) + eps
    res = (u - v) + alpha * w * (D.T @ (D @ u))
    rel = float(np.linalg.norm(res)) / float(np.linalg.norm(v))
    require(rel <= 1e-9, f"convex step optimality residual {rel:.3g} (relative)")


def check_grad(u, dx1: float, reported: float):
    g = float(np.max(np.abs(diff_matrix(u.shape[0], dx1) @ u)))
    require(abs(g - reported) <= 1e-9 * g, f"trace grad_linf {reported!r} != {g!r}")


def check_jitter(raw, out, shifts, M: int):
    """Each x2-line of out is its raw line shifted by the reported shift."""
    require(np.all(np.abs(shifts) <= M), "a reported shift exceeds M")
    for j, s in enumerate(shifts):
        require(
            np.array_equal(out[:, j], shift_line(raw[:, j], int(s))),
            f"line {j} is not its input shifted by {int(s)}",
        )


def check_flows_reached(flows):
    """flows: (t reached, t_end) of every traced evolve call."""
    for t, t_end in flows:
        require(t >= t_end * (1 - 1e-12), f"evolve stopped at t = {t:.4g} of t_end = {t_end:.4g}")
