"""Parallel-beam tomography: phantom, Radon transform, perturbations, FBP.

Images live on [-1, 1]^2 with cell-centered pixels.  A sinogram stores one
row per beam angle theta (axis X1) and one column per signed beam offset l
(axis X2); angles lie in [0, pi), and the projections wrap other angles
into that range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Axis, ScalarField


class TomoError(ValueError):
    pass


# Shepp-Logan ellipse geometry (a, b, x0, y0, phi_degrees) and each
# variant's intensities; the high-contrast variant rescales the standard ones.
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
#: the phantom variants and the FBP filters, by name
VARIANTS = tuple(_SL_INTENSITY)
FILTERS = ("ram-lak", "shepp-logan-filter", "none")
#: the smallest side of a phantom or a reconstruction
MIN_SIZE = 16


def shepp_logan(n: int, variant: str = "high-contrast") -> ScalarField:
    """n x n rasterization of the ten-ellipse Shepp-Logan phantom."""
    if variant not in VARIANTS:
        raise TomoError(f"unknown phantom variant {variant!r}")
    if n < MIN_SIZE:
        raise TomoError(f"phantom size must be at least {MIN_SIZE}")
    c = (np.arange(n) + 0.5) * (2.0 / n) - 1.0
    X, Y = np.meshgrid(c, c, indexing="ij")
    img = np.zeros((n, n))
    for rho, (a, b, x0, y0, phi) in zip(_SL_INTENSITY[variant], _SL_GEOMETRY):
        t = math.radians(phi)
        xr = (X - x0) * math.cos(t) + (Y - y0) * math.sin(t)
        yr = -(X - x0) * math.sin(t) + (Y - y0) * math.cos(t)
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += rho
    return ScalarField(img, 2.0 / n, 2.0 / n)


def angle_count(step: float) -> int:
    """round(pi / step), counted without building the grid; a TomoError if
    that is fewer than two, or more float64s than numpy can index."""
    count = math.pi / step if step else 0.0  # NaN stays NaN
    if not (count <= np.iinfo(np.intp).max // 8 and round(count) >= 2):
        raise TomoError(f"angle_step must give at least two angles in [0, pi), got {step}")
    return round(count)


def angle_grid(step: float) -> np.ndarray:
    """Sinogram angles j * step for j < angle_count(step)."""
    return np.arange(angle_count(step)) * step


@dataclass(frozen=True)
class Sinogram:
    field: ScalarField          # values[j, i]: angle j, offset i
    angles: np.ndarray          # radians, strictly increasing, in [0, pi)
    offsets: np.ndarray         # signed offsets, strictly increasing, evenly spaced

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=float)
        offsets = np.asarray(self.offsets, dtype=float)
        if angles.size != self.field.n1:
            raise TomoError("angle count does not match sinogram rows")
        if offsets.size != self.field.n2:
            raise TomoError("offset count does not match sinogram columns")
        if np.any(np.diff(angles) <= 0):
            raise TomoError("angles must be strictly increasing")
        if not (np.isfinite(offsets).all() and np.all(np.diff(offsets) > 0)):
            raise TomoError("offsets must be finite and strictly increasing")
        if not np.all((angles >= 0) & (angles < np.pi)):  # NaN too
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
    if not 0 <= bound < math.inf:  # NaN would draw all zeros
        raise TomoError(f"bound must be non-negative and finite, got {bound}")
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.0, bound, size=len(angles)) if bound > 0 else np.zeros(len(angles))
    return AngularPerturbation(d, bound, seed)


def default_offsets(n: int, n_offsets: int | None = None) -> np.ndarray:
    """Detector offsets spanning the image diagonal; at least two, so the
    sinogram has an offset spacing."""
    if n_offsets is None:
        n_offsets = int(math.ceil(n * math.sqrt(2.0))) | 1
    if n_offsets < 2:
        raise TomoError(f"need at least 2 detector offsets, got {n_offsets}")
    half = math.sqrt(2.0)
    return np.linspace(-half, half, n_offsets)


# a chunk holds the samples of at most _BLOCK full rays: its buffers (32 x
# 364 doubles each at n=128) stay in L2 cache while an angle is built
_BLOCK = 32
# samples built beyond each end of a ray's crossing of the support box, and
# the box's extra width in pixels; both lie far above the rounding of a
# sample position, so no sample that can read a nonzero pixel is skipped
_MARGIN = 1
_SLACK = 1e-6


def _support_box(values: np.ndarray):
    """Bounds (row lo, row hi, column lo, column hi) of the sample positions,
    in pixel units, that can read a nonzero pixel; None if there are none.

    A sample at pixel position f = (x + 1) / px - 0.5 reads pixels floor(f)
    and floor(f) + 1, so it reads row i only if f lies in [i - 1, i + 1):
    the bounding box of the nonzero pixels, dilated by one pixel.  -0.0
    counts as nonzero, so a row of -0.0 keeps its sign."""
    support = (values != 0.0) | np.signbit(values)
    rows = np.flatnonzero(support.any(axis=1))
    cols = np.flatnonzero(support.any(axis=0))
    if rows.size == 0:
        return None
    return (
        rows[0] - 1 - _SLACK, rows[-1] + 1 + _SLACK,
        cols[0] - 1 - _SLACK, cols[-1] + 1 + _SLACK,
    )


def _slab(f0: np.ndarray, d: float, lo: float, hi: float):
    """Bounds of the t with lo <= f0 + t*d <= hi, per entry of f0."""
    if d == 0.0:
        inside = (lo <= f0) & (f0 <= hi)
        return np.where(inside, -np.inf, np.inf), np.where(inside, np.inf, -np.inf)
    a, b = (lo - f0) / d, (hi - f0) / d
    return (a, b) if d > 0 else (b, a)


def _ray_spans(box, c: float, s: float, offsets: np.ndarray, t: np.ndarray, px: float):
    """First and end index into t of the samples of the rays at cos c and
    sin s, one per offset, whose position lies in the support box (slab
    method), widened by _MARGIN samples per end; first == end where none
    does."""
    nt = t.size
    if box is None:
        none = np.zeros(offsets.size, dtype=np.intp)
        return none, none
    # x = l cos - t sin, y = l sin + t cos
    x0, x1 = _slab((offsets * c + 1.0) / px - 0.5, -s / px, box[0], box[1])
    y0, y1 = _slab((offsets * s + 1.0) / px - 0.5, c / px, box[2], box[3])
    h = t[1] - t[0]
    first = np.ceil((np.maximum(x0, y0) - t[0]) / h) - _MARGIN
    end = np.floor((np.minimum(x1, y1) - t[0]) / h) + 1 + _MARGIN
    first = np.clip(first, 0, nt)
    return first.astype(np.intp), np.clip(end, first, nt).astype(np.intp)


def _project(f: ScalarField, angles: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Ray-driven line integrals with bilinear interpolation; zero outside
    the image.

    Only the samples that can read a nonzero pixel are built (_ray_spans);
    every other sample reads four zeros with nonnegative weights, so its
    value is exactly the 0.0 its table entry keeps.  The built samples
    gather from a zero-padded copy of the image through flat indices, so a
    neighbour outside [-1, 1]^2 reads 0.0 and no bounds mask is needed:
    each built sample lies within _MARGIN ray steps (h / px <= 1/2 pixel
    each) of the support box, which reaches one pixel past the image, so
    a pad of 2 + ceil(_MARGIN * h / px) pixels holds all four of its
    neighbours.  An angle's kept samples are built in flat chunks of at
    most _BLOCK * nt, in buffers allocated once per call, and the four
    corners are gathered from shifted views of the padded image.  Every
    built sample goes through the same floating-point operations in the
    same order as a masked gather, and the trapezoid sum runs once per
    angle over the full table of all offsets and samples, so the clipping,
    the zero padding and the chunking leave every line integral bitwise
    unchanged."""
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
    pad = 2 + math.ceil(_MARGIN * h / px)
    m = n + 2 * pad
    padded = np.zeros((m, m))
    padded[pad : pad + n, pad : pad + n] = f.values
    flat = padded.ravel()
    # neighbours (i0, j0), (i0+1, j0), (i0, j0+1), (i0+1, j0+1) of flat index k
    g00, g10, g01, g11 = (flat[o:] for o in (0, m, 1, m + 1))

    box = _support_box(f.values)
    nl = len(offsets)
    vals = np.zeros((nl, nt))
    table = vals.ravel()  # a view: vals is contiguous
    cap = _BLOCK * nt
    bufs = [np.empty(cap) for _ in range(7)]
    kbuf = np.empty(cap, dtype=np.int64)
    ar = np.arange(cap)
    row_start = np.arange(nl) * nt  # flat index of each offset's table row
    for j, th in enumerate(angles):
        c, s = math.cos(th), math.sin(th)
        lc = offsets * c
        ls = offsets * s
        ts = t * s
        tc = t * c
        first, end = _ray_spans(box, c, s, offsets, t, px)
        counts = end - first
        done = np.cumsum(counts)  # kept samples up to and with each offset
        vals.fill(0.0)
        b = 0
        while b < nl:
            before = int(done[b - 1]) if b else 0
            e = int(np.searchsorted(done, before + cap, "right"))
            cnt = counts[b:e]
            size = int(done[e - 1]) - before
            if size:
                fx, fy, i0, j0, w, g, v = (a[:size] for a in bufs)
                k = kbuf[:size]
                # t index of each kept sample, offset by offset
                ti = ar[:size] + np.repeat(first[b:e] - (done[b:e] - cnt - before), cnt)
                ts.take(ti, out=fx)
                np.subtract(np.repeat(lc[b:e], cnt), fx, out=fx)  # x = l cos - t sin
                fx += 1.0
                fx /= px
                fx -= 0.5
                tc.take(ti, out=fy)
                np.add(np.repeat(ls[b:e], cnt), fy, out=fy)  # y = l sin + t cos
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
                ti += np.repeat(row_start[b:e], cnt)
                table[ti] = v
            b = e
        rows[j] = vals @ wgt
    return rows


def _wrap_angles(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angle labels in [0, pi), and whether each angle's offsets run
    reversed: the ray at theta and offset l is the ray at theta - pi and
    offset -l.  Angles already in [0, pi) keep their label."""
    turns = np.floor(angles / math.pi)  # 0 for every angle in [0, pi)
    labels = np.where(turns == 0, angles, angles - turns * math.pi)
    # rounding can leave a wrapped label just below 0 or at pi
    low = labels < 0.0
    labels[low] += math.pi
    turns[low] -= 1
    high = labels >= math.pi
    labels[high] -= math.pi
    turns[high] += 1
    return labels, turns % 2 != 0


def radon(
    f: ScalarField,
    angles,
    n_offsets: int | None = None,
) -> Sinogram:
    """Parallel-beam Radon transform of a square image: radon_perturbed
    with a zero perturbation."""
    angles = np.asarray(angles, dtype=float)
    return radon_perturbed(f, angles, n_offsets, AngularPerturbation(np.zeros(angles.size), 0.0))


def radon_perturbed(
    f: ScalarField,
    angles,
    n_offsets: int | None,
    pert: AngularPerturbation,
    noise_sigma: float = 0.0,
    noise_seed: int = 0,
) -> Sinogram:
    """Rays evaluated at theta + d1(theta) but labeled theta, plus i.i.d.
    Gaussian noise of standard deviation noise_sigma.

    A label outside [0, pi) is wrapped mod pi and its row reversed (theta
    >= pi becomes theta - pi with l -> -l; the offsets are symmetric), and
    the rows are sorted by label, so row j of the result belongs to the
    j-th smallest wrapped label.  Two labels that coincide after wrapping
    are a TomoError."""
    angles = np.asarray(angles, dtype=float)
    if angles.size == 0:
        raise TomoError("angle list must be non-empty")
    if len(pert.d) != len(angles):
        raise TomoError("perturbation length does not match angle count")
    rays = angles + pert.d
    if not np.all(np.isfinite(rays)):
        raise TomoError("angles and displacements must be finite")
    if noise_sigma < 0:
        raise TomoError("noise_sigma must be non-negative")
    if f.n1 != f.n2:
        raise TomoError("radon expects a square image")
    offsets = default_offsets(f.n1, n_offsets)
    labels, flipped = _wrap_angles(angles)
    order = np.argsort(labels)
    same = np.flatnonzero(np.diff(labels[order]) == 0.0)
    if same.size:
        a, b = float(angles[order[same[0]]]), float(angles[order[same[0] + 1]])
        raise TomoError(f"angles {a!r} and {b!r} coincide after wrapping mod pi")
    rows = _project(f, rays, offsets)
    rows[flipped] = rows[flipped, ::-1]
    rows = rows[order]
    if noise_sigma > 0:
        rng = np.random.default_rng(noise_seed)
        rows = rows + rng.normal(0.0, noise_sigma, size=rows.shape)
    labels = labels[order]
    d_theta = float(labels[1] - labels[0]) if len(labels) > 1 else math.pi
    field = ScalarField(rows, d_theta, float(offsets[1] - offsets[0]))
    return Sinogram(field, labels, offsets)


def _ramp_filter(n_pad: int, dl: float, kind: str) -> np.ndarray:
    """The frequency response of the filter kind, one of FILTERS."""
    if kind == "none":
        return np.ones(n_pad)
    freq = np.fft.fftfreq(n_pad, d=dl)
    ramp = np.abs(freq)
    if kind == "shepp-logan-filter":
        nyq = 0.5 / dl
        return ramp * np.sinc(freq / (2.0 * nyq))
    return ramp


def fbp(
    s: Sinogram,
    n_out: int,
    filter: str = "ram-lak",
    backproject_angles=None,
) -> ScalarField:
    """Filtered backprojection onto an n_out x n_out image on [-1, 1]^2.

    backproject_angles overrides the angle labels used during
    backprojection (they need not lie in [0, pi) or be ordered, but must
    be finite); the default uses the sinogram's own labels.  Only the
    pixels of the inscribed unit disk (the region covered by every
    projection) are backprojected; the others are 0."""
    if n_out < MIN_SIZE:
        raise TomoError(f"output size must be at least {MIN_SIZE}")
    if filter not in FILTERS:
        raise TomoError(f"unknown filter {filter!r}")
    if len(s.angles) < 2:
        raise TomoError("need at least two angles for reconstruction")
    bp_angles = (
        s.angles if backproject_angles is None else np.asarray(backproject_angles)
    )
    if len(bp_angles) != len(s.angles):
        raise TomoError("backproject_angles length must match the angle count")
    if not np.isfinite(bp_angles).all():
        raise TomoError("backproject_angles must be finite")
    rows = s.field.values
    n_off = rows.shape[1]
    n_pad = 1 << int(math.ceil(math.log2(2 * n_off)))
    H = _ramp_filter(n_pad, s.d_offset, filter)
    filtered = np.fft.ifft(np.fft.fft(rows, n=n_pad, axis=1) * H[None, :], axis=1)
    filtered = np.ascontiguousarray(filtered.real[:, :n_off])

    c = (np.arange(n_out) + 0.5) * (2.0 / n_out) - 1.0
    c2 = c * c
    disk = c2[:, None] + c2[None, :] <= 1.0  # x^2 + y^2 <= 1, x along axis 0
    X, Y = (c[i] for i in np.nonzero(disk))  # only the disk's pixels
    acc = np.zeros(X.size)
    # per-angle buffers, filled in place by the operations of
    # acc += (1 - t) * row[i0] + t * row[i0 + 1] in their usual order
    fi, t, g = (np.empty(X.size) for _ in range(3))
    i0 = np.empty(X.size, dtype=np.int64)
    l0 = s.offsets[0]
    dl = s.d_offset
    for row, th in zip(filtered, bp_angles):
        np.multiply(X, math.cos(th), out=fi)
        np.multiply(Y, math.sin(th), out=g)
        fi += g  # l = x cos + y sin
        fi -= l0
        fi /= dl
        np.floor(fi, out=t)
        np.copyto(i0, t, casting="unsafe")  # truncates like astype
        np.clip(i0, 0, n_off - 2, out=i0)
        np.subtract(fi, i0, out=t)
        np.clip(t, 0.0, 1.0, out=t)
        u = np.subtract(1, t, out=fi)  # fi is free once t is known
        u *= row.take(i0, out=g)
        i0 += 1
        row.take(i0, out=g)
        g *= t
        u += g
        acc += u
    acc *= math.pi / len(s.angles)
    out = np.zeros((n_out, n_out))
    out[disk] = acc
    return ScalarField(out, 2.0 / n_out, 2.0 / n_out)
