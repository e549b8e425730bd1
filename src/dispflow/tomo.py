"""Parallel-beam tomography: phantom, Radon transform, perturbations, FBP.

Images live on [-1, 1]^2 with cell-centered pixels.  A sinogram stores one
row per beam angle theta (axis X1) and one column per signed beam offset l
(axis X2); angles lie in [0, pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Axis, ScalarField


class TomoError(ValueError):
    pass


# Shepp-Logan ellipse table: (intensity, a, b, x0, y0, phi_degrees); the
# high-contrast variant uses the same geometry with rescaled intensities.
_SL_GEOMETRY = [
    (0.69, 0.92, 0.0, 0.0, 0.0),
    (0.6624, 0.874, 0.0, -0.0184, 0.0),
    (0.11, 0.31, 0.22, 0.0, -18.0),
    (0.16, 0.41, -0.22, 0.0, 18.0),
    (0.21, 0.25, 0.0, 0.35, 0.0),
    (0.046, 0.046, 0.0, 0.1, 0.0),
    (0.046, 0.046, 0.0, -0.1, 0.0),
    (0.046, 0.023, -0.08, -0.605, 0.0),
    (0.023, 0.023, 0.0, -0.605, 0.0),
    (0.023, 0.046, 0.06, -0.605, 0.0),
]
_SL_INTENSITY = {
    "standard": [2.0, -0.98, -0.02, -0.02, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01],
    "high-contrast": [1.0, -0.8, -0.2, -0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
}


@dataclass(frozen=True)
class Phantom:
    """Additive superposition of ellipses (intensity, a, b, x0, y0, phi_deg)."""

    ellipses: tuple

    def rasterize(self, n: int) -> ScalarField:
        if n < 16:
            raise TomoError("phantom size must be at least 16")
        c = (np.arange(n) + 0.5) * (2.0 / n) - 1.0
        X, Y = np.meshgrid(c, c, indexing="ij")
        img = np.zeros((n, n))
        for rho, a, b, x0, y0, phi in self.ellipses:
            t = math.radians(phi)
            xr = (X - x0) * math.cos(t) + (Y - y0) * math.sin(t)
            yr = -(X - x0) * math.sin(t) + (Y - y0) * math.cos(t)
            img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += rho
        return ScalarField(img, 2.0 / n, 2.0 / n)


def shepp_logan_phantom(variant: str = "high-contrast") -> Phantom:
    if variant not in _SL_INTENSITY:
        raise TomoError(f"unknown phantom variant {variant!r}")
    rho = _SL_INTENSITY[variant]
    return Phantom(tuple((r, *geo) for r, geo in zip(rho, _SL_GEOMETRY)))


def shepp_logan(n: int, variant: str = "high-contrast") -> ScalarField:
    """n x n rasterization of the ten-ellipse Shepp-Logan phantom."""
    return shepp_logan_phantom(variant).rasterize(n)


@dataclass(frozen=True)
class Sinogram:
    field: ScalarField          # values[j, i]: angle j, offset i
    angles: np.ndarray          # radians, strictly increasing, in [0, pi)
    offsets: np.ndarray         # signed offsets, evenly spaced

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=float)
        offsets = np.asarray(self.offsets, dtype=float)
        if angles.size != self.field.n1:
            raise TomoError("angle count does not match sinogram rows")
        if offsets.size != self.field.n2:
            raise TomoError("offset count does not match sinogram columns")
        if np.any(np.diff(angles) <= 0):
            raise TomoError("angles must be strictly increasing")
        if np.any(angles < 0) or np.any(angles >= np.pi):
            raise TomoError("angles must lie in [0, pi)")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "offsets", offsets)

    @property
    def d_offset(self) -> float:
        return float(self.offsets[1] - self.offsets[0])

    def with_field(self, field: ScalarField) -> "Sinogram":
        return Sinogram(field, self.angles, self.offsets)


@dataclass(frozen=True)
class AngularPerturbation:
    """Per-angle beam-direction error d1(theta_j) in [0, bound]."""

    d: np.ndarray
    bound: float
    seed: int | None = None

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if np.any(d < 0) or np.any(d > self.bound + 1e-15):
            raise TomoError("displacements must lie in [0, bound]")
        object.__setattr__(self, "d", d)


def sample_uniform_displacement(
    angles, bound: float, seed: int
) -> AngularPerturbation:
    """i.i.d. Uniform[0, bound] angular displacements, reproducible by seed."""
    if bound < 0:
        raise TomoError("bound must be non-negative")
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.0, bound, size=len(angles)) if bound > 0 else np.zeros(len(angles))
    return AngularPerturbation(d, bound, seed)


def default_offsets(n: int, n_offsets: int | None = None) -> np.ndarray:
    """Detector offsets spanning the image diagonal."""
    if n_offsets is None:
        n_offsets = int(math.ceil(n * math.sqrt(2.0))) | 1
    half = math.sqrt(2.0)
    return np.linspace(-half, half, n_offsets)


# offsets per block of samples: one block's buffers (32 x 364 doubles each
# at n=128) stay in L2 cache while an angle is built
_BLOCK = 32


def _project(f: ScalarField, angles: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Ray-driven line integrals with bilinear interpolation; zero outside
    the image.

    Each angle samples a zero-padded copy of the image through flat indices,
    so a neighbour outside [-1, 1]^2 reads 0.0 and no bounds mask is needed.
    A sample at offset l and ray parameter |t| <= sqrt(2) satisfies
    |x|, |y| <= hypot(l, t), and the pad keeps all four neighbours of every
    such point inside the padded copy.

    An angle's samples are built _BLOCK offsets at a time in buffers
    allocated once per call, and the four corners are gathered from
    shifted views of the padded image.  Every sample goes through the same
    floating-point operations in the same order as a masked gather, and the
    trapezoid sum runs once per angle over all offsets, so the zero padding
    and the blocking leave every line integral bitwise unchanged."""
    n = f.n1
    half = math.sqrt(2.0)
    step = 1.0 / n  # half a pixel
    nt = int(math.ceil(2.0 * half / step)) + 1
    t = np.linspace(-half, half, nt)
    h = t[1] - t[0]
    rows = np.empty((len(angles), len(offsets)))
    wgt = np.full(nt, h)
    wgt[0] = wgt[-1] = 0.5 * h  # trapezoid rule

    px = 2.0 / n
    reach = math.hypot(float(np.max(np.abs(offsets))), half)
    pad = math.ceil((reach - 1.0) / px) + 2
    m = n + 2 * pad
    padded = np.zeros((m, m))
    padded[pad : pad + n, pad : pad + n] = f.values
    flat = padded.ravel()
    # neighbours (i0, j0), (i0+1, j0), (i0, j0+1), (i0+1, j0+1) of flat index k
    g00, g10, g01, g11 = (flat[o:] for o in (0, m, 1, m + 1))

    nl = len(offsets)
    vals = np.empty((nl, nt))
    bufs = [np.empty((_BLOCK, nt)) for _ in range(6)]
    kbuf = np.empty((_BLOCK, nt), dtype=np.int64)
    for j, th in enumerate(angles):
        c, s = math.cos(th), math.sin(th)
        lc = (offsets * c)[:, None]
        ls = (offsets * s)[:, None]
        ts = t * s
        tc = t * c
        for b in range(0, nl, _BLOCK):
            e = min(b + _BLOCK, nl)
            fx, fy, i0, j0, w, g = (a[: e - b] for a in bufs)
            k = kbuf[: e - b]
            np.subtract(lc[b:e], ts, out=fx)  # x = l cos - t sin
            fx += 1.0
            fx /= px
            fx -= 0.5
            np.add(ls[b:e], tc, out=fy)  # y = l sin + t cos
            fy += 1.0
            fy /= px
            fy -= 0.5
            np.floor(fx, out=i0)
            np.floor(fy, out=j0)
            fx -= i0  # tx
            fy -= j0  # ty
            i0 *= m
            i0 += j0
            np.copyto(k, i0, casting="unsafe")  # truncates like astype
            k += pad * m + pad
            ux = np.subtract(1.0, fx, out=i0)
            uy = np.subtract(1.0, fy, out=j0)
            # the pad keeps every index in range, so mode="clip" never
            # clips; it lets take() write into g without a buffered copy
            v = vals[b:e]
            np.multiply(ux, uy, out=w)
            np.multiply(w, g00.take(k, out=g, mode="clip"), out=v)
            np.multiply(fx, uy, out=w)
            w *= g10.take(k, out=g, mode="clip")
            v += w
            np.multiply(ux, fy, out=w)
            w *= g01.take(k, out=g, mode="clip")
            v += w
            np.multiply(fx, fy, out=w)
            w *= g11.take(k, out=g, mode="clip")
            v += w
        rows[j] = vals @ wgt
    return rows


def radon(
    f: ScalarField,
    angles,
    n_offsets: int | None = None,
) -> Sinogram:
    """Parallel-beam Radon transform of a square image."""
    angles = np.asarray(angles, dtype=float)
    if angles.size == 0:
        raise TomoError("angle list must be non-empty")
    if f.n1 != f.n2:
        raise TomoError("radon expects a square image")
    offsets = default_offsets(f.n1, n_offsets)
    rows = _project(f, angles, offsets)
    d_theta = float(angles[1] - angles[0]) if len(angles) > 1 else math.pi
    field = ScalarField(rows, d_theta, float(offsets[1] - offsets[0]))
    return Sinogram(field, angles, offsets)


def radon_perturbed(
    f: ScalarField,
    angles,
    n_offsets: int | None,
    pert: AngularPerturbation,
    noise_sigma: float = 0.0,
    noise_seed: int = 0,
) -> Sinogram:
    """Rays evaluated at theta + d1(theta) but labeled theta, plus i.i.d.
    Gaussian noise of standard deviation noise_sigma."""
    angles = np.asarray(angles, dtype=float)
    if len(pert.d) != len(angles):
        raise TomoError("perturbation length does not match angle count")
    if noise_sigma < 0:
        raise TomoError("noise_sigma must be non-negative")
    if f.n1 != f.n2:
        raise TomoError("radon expects a square image")
    offsets = default_offsets(f.n1, n_offsets)
    rows = _project(f, angles + pert.d, offsets)
    if noise_sigma > 0:
        rng = np.random.default_rng(noise_seed)
        rows = rows + rng.normal(0.0, noise_sigma, size=rows.shape)
    d_theta = float(angles[1] - angles[0]) if len(angles) > 1 else math.pi
    field = ScalarField(rows, d_theta, float(offsets[1] - offsets[0]))
    return Sinogram(field, angles, offsets)


def _ramp_filter(n_pad: int, dl: float, kind: str) -> np.ndarray:
    freq = np.fft.fftfreq(n_pad, d=dl)
    ramp = np.abs(freq)
    if kind == "ram-lak":
        return ramp
    if kind == "shepp-logan-filter":
        nyq = 0.5 / dl
        return ramp * np.sinc(freq / (2.0 * nyq))
    if kind == "none":
        return np.ones(n_pad)
    raise TomoError(f"unknown filter {kind!r}")


def fbp(
    s: Sinogram,
    n_out: int,
    filter: str = "ram-lak",
    backproject_angles=None,
) -> ScalarField:
    """Filtered backprojection onto an n_out x n_out image on [-1, 1]^2.

    backproject_angles overrides the angle labels used during
    backprojection (they need not lie in [0, pi) or be ordered); the
    default uses the sinogram's own labels.  The reconstruction is masked
    to the inscribed unit disk (the region covered by every projection)."""
    if n_out < 16:
        raise TomoError("output size must be at least 16")
    if len(s.angles) < 2:
        raise TomoError("need at least two angles for reconstruction")
    bp_angles = (
        s.angles if backproject_angles is None else np.asarray(backproject_angles)
    )
    if len(bp_angles) != len(s.angles):
        raise TomoError("backproject_angles length must match the angle count")
    rows = s.field.values
    n_off = rows.shape[1]
    n_pad = 1 << int(math.ceil(math.log2(2 * n_off)))
    H = _ramp_filter(n_pad, s.d_offset, filter)
    filtered = np.fft.ifft(np.fft.fft(rows, n=n_pad, axis=1) * H[None, :], axis=1)
    filtered = filtered.real[:, :n_off]

    c = (np.arange(n_out) + 0.5) * (2.0 / n_out) - 1.0
    X, Y = np.meshgrid(c, c, indexing="ij")
    out = np.zeros((n_out, n_out))
    l0 = s.offsets[0]
    dl = s.d_offset
    for j, th in enumerate(bp_angles):
        l = X * math.cos(th) + Y * math.sin(th)
        fi = (l - l0) / dl
        i0 = np.clip(np.floor(fi).astype(np.int64), 0, n_off - 2)
        t = np.clip(fi - i0, 0.0, 1.0)
        out += (1 - t) * filtered[j, i0] + t * filtered[j, i0 + 1]
    out *= math.pi / len(s.angles)
    out[X * X + Y * Y > 1.0] = 0.0
    return ScalarField(out, 2.0 / n_out, 2.0 / n_out)
