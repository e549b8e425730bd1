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
        if not np.all((d >= 0) & (d <= self.bound + 1e-15)):  # NaN too
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
# samples built beyond each end of a ray's crossing of the support octagon,
# and the octagon's extra width in pixels; both lie far above the rounding
# of a sample position, so no sample that can read a nonzero pixel is skipped
_MARGIN = 1
_SLACK = 1e-6


def _support_octagon(values: np.ndarray):
    """Bounds (lo, hi) of fx, fy, fx + fy and fx - fy, in pixel units, of
    the sample positions (fx, fy) that can read a nonzero pixel; None if
    there are none.

    A sample at pixel position f = (x + 1) / px - 0.5 reads pixels floor(f)
    and floor(f) + 1, so it reads pixel (i, j) only if fx lies in
    [i - 1, i + 1) and fy in [j - 1, j + 1), and so fx + fy within 2 of
    i + j and fx - fy within 2 of i - j: the bounds of i, j, i + j and
    i - j over the nonzero pixels, dilated by 1, 1, 2 and 2.  -0.0 counts
    as nonzero, so a row of -0.0 keeps its sign."""
    i, j = np.nonzero((values != 0.0) | np.signbit(values))
    if i.size == 0:
        return None
    return tuple((float(v.min()) - r - _SLACK, float(v.max()) + r + _SLACK)
                 for v, r in ((i, 1), (j, 1), (i + j, 2), (i - j, 2)))


def _slab(f0: np.ndarray, d: np.ndarray, lo: float, hi: float):
    """Bounds of the t with lo <= f0 + t*d <= hi, per entry of f0; d holds
    one step per row of f0."""
    with np.errstate(divide="ignore", invalid="ignore"):  # rows with d == 0 are set below
        a, b = (lo - f0) / d, (hi - f0) / d
    enter, leave = np.minimum(a, b), np.maximum(a, b)
    flat = d[:, 0] == 0.0
    if flat.any():
        inside = (lo <= f0[flat]) & (f0[flat] <= hi)
        enter[flat] = np.where(inside, -np.inf, np.inf)
        leave[flat] = np.where(inside, np.inf, -np.inf)
    return enter, leave


def _ray_spans(octagon, c: np.ndarray, s: np.ndarray, offsets: np.ndarray, t: np.ndarray,
               px: float):
    """First and end index into t of the samples of every ray, one row per
    angle (cosines c, sines s) and one column per offset, whose position
    lies in the support octagon (four slabs), widened by _MARGIN samples
    per end; first == end where none does."""
    nt = t.size
    if octagon is None:
        none = np.zeros((c.size, offsets.size), dtype=np.intp)
        return none, none
    c, s = c[:, None], s[:, None]
    # fx = (x + 1) / px - 0.5 and fy = (y + 1) / px - 0.5, x = l cos - t sin, y = l sin + t cos
    lines = (
        ((offsets * c + 1.0) / px - 0.5, -s / px),  # fx
        ((offsets * s + 1.0) / px - 0.5, c / px),  # fy
        ((offsets * (c + s) + 2.0) / px - 1.0, (c - s) / px),  # fx + fy
        (offsets * (c - s) / px, -(c + s) / px),  # fx - fy
    )
    enter, leave = _slab(*lines[0], *octagon[0])
    for (f0, d), (lo, hi) in zip(lines[1:], octagon[1:]):
        a, b = _slab(f0, d, lo, hi)
        np.maximum(enter, a, out=enter)
        np.minimum(leave, b, out=leave)
    h = t[1] - t[0]
    first = np.ceil((enter - t[0]) / h) - _MARGIN
    end = np.floor((leave - t[0]) / h) + 1 + _MARGIN
    first = np.clip(first, 0, nt)
    return first.astype(np.intp), np.clip(end, first, nt).astype(np.intp)


def _project(f: ScalarField, angles: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Ray-driven line integrals with bilinear interpolation; zero outside
    the image.

    Only the samples that can read a nonzero pixel are built: those of
    each ray's stretch inside an octagon around the nonzero pixels, the
    bounds of i, j, i + j and i - j (_support_octagon), widened by _MARGIN
    samples per end.  Every angle's spans are found at once, in one pass
    over (angles x offsets) arrays (_ray_spans).  Every other sample reads
    four zeros, so it adds nothing to its ray's sum.  A sample's position
    is taken in pixels of a zero-padded copy of the image, as its ray's
    intercept minus t sin / px (or plus t cos / px), so a neighbour
    outside [-1, 1]^2 reads 0.0 and no bounds mask is needed: each built
    sample lies within _MARGIN ray steps (h / px <= 1/2 pixel each) of the
    octagon, which lies inside the support's bounding box dilated by one
    pixel, so a pad of 2 + ceil(_MARGIN * h / px) pixels holds all four of
    its neighbours.  One gather per sample fetches the four bilinear
    coefficients of its cell, g00, g10 - g00, g01 - g00 and
    g11 - g10 - g01 + g00, from a table built once per call.  An angle's
    kept samples are built in flat chunks of at most _BLOCK * nt, in
    buffers allocated once per call, and each ray is summed over its own
    span (trapezoid rule: half weight on the ray's first and last sample
    where the span reaches them).  Each angle's cosine and sine come from
    math.cos and math.sin.  The sums run in another order and the
    interpolation in another form than a masked gather's full-table
    trapezoid sum, so a line integral is that one within rounding: within
    1e-12 of the largest |row| on the tests' reference cases."""
    n = f.n1
    half = math.sqrt(2.0)
    step = 1.0 / n  # half a pixel
    nt = int(math.ceil(2.0 * half / step)) + 1
    t = np.linspace(-half, half, nt)
    h = t[1] - t[0]
    px = 2.0 / n
    cos = np.array([math.cos(th) for th in angles])
    sin = np.array([math.sin(th) for th in angles])
    # the spans' temporaries are freed before the sample buffers are made
    firsts, ends = _ray_spans(_support_octagon(f.values), cos, sin, offsets, t, px)
    rows = np.zeros((len(angles), len(offsets)))

    pad = 2 + math.ceil(_MARGIN * h / px)
    m = n + 2 * pad
    padded = np.zeros((m, m))
    padded[pad : pad + n, pad : pad + n] = f.values
    flat = padded.ravel()
    # row k: the bilinear coefficients c0..c3 of the cell whose corner has
    # flat index k, from its neighbours (i0, j0), (i0+1, j0), (i0, j0+1), (i0+1, j0+1)
    g00, g10, g01, g11 = (flat[o : o + flat.size - m - 1] for o in (0, m, 1, m + 1))
    coef = np.stack([g00, g10 - g00, g01 - g00, g11 - g10 - g01 + g00], axis=1)
    # sample positions in padded pixels: (x + 1) / px - 0.5 + pad, with
    # x = l cos - t sin and y = l sin + t cos
    shift = 1.0 / px - 0.5 + pad
    lp = offsets / px
    tp = t / px

    nl = len(offsets)
    cap = _BLOCK * nt
    bufs = [np.empty(cap) for _ in range(5)]
    kbuf = np.empty(cap, dtype=np.intp)
    gbuf = np.empty((cap, 4))
    ar = np.arange(cap)
    for j, (first, end) in enumerate(zip(firsts, ends)):
        x0 = lp * cos[j] + shift  # each ray's intercepts
        y0 = lp * sin[j] + shift
        ts = tp * sin[j]
        tc = tp * cos[j]
        counts = end - first
        done = np.cumsum(counts)  # kept samples up to and with each offset
        b = 0
        while b < nl:
            before = int(done[b - 1]) if b else 0
            e = int(np.searchsorted(done, before + cap, "right"))
            cnt = counts[b:e]
            size = int(done[e - 1]) - before
            if size:
                x, y, ix, iy, v = (a[:size] for a in bufs)
                k = kbuf[:size]
                starts = done[b:e] - cnt - before  # each ray's first sample in the chunk
                ti = ar[:size] + (first[b:e] - starts).repeat(cnt)  # t index
                # every index is in range, so mode="clip" never clips; it
                # lets take() write into out without a buffered copy
                ts.take(ti, out=x, mode="clip")
                np.subtract(x0[b:e].repeat(cnt), x, out=x)
                tc.take(ti, out=y, mode="clip")
                y += y0[b:e].repeat(cnt)
                np.floor(x, out=ix)
                np.floor(y, out=iy)
                x -= ix  # tx
                y -= iy  # ty
                ix *= m
                ix += iy
                np.copyto(k, ix, casting="unsafe")  # truncates like astype
                c = coef.take(k, axis=0, out=gbuf[:size], mode="clip")
                np.multiply(c[:, 3], y, out=v)
                v += c[:, 1]
                v *= x
                np.multiply(c[:, 2], y, out=ix)
                ix += c[:, 0]
                v += ix  # c0 + tx (c1 + ty c3) + ty c2
                kept = cnt > 0
                s0 = starts[kept]
                v[s0[first[b:e][kept] == 0]] *= 0.5  # trapezoid rule
                v[(s0 + cnt[kept] - 1)[end[b:e][kept] == nt]] *= 0.5
                rows[j, b:e][kept] = np.add.reduceat(v, s0)
            b = e
    rows *= h
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
    if not 0 <= noise_sigma < math.inf:  # NaN would add no noise
        raise TomoError(f"noise_sigma must be non-negative and finite, got {noise_sigma}")
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
    s: Sinogram | list[Sinogram],
    n_out: int,
    filter: str = "ram-lak",
    backproject_angles=None,
) -> ScalarField | list[ScalarField]:
    """Filtered backprojection onto an n_out x n_out image on [-1, 1]^2: a
    ScalarField for one Sinogram s, or a list of one per sinogram for a
    sequence s of sinograms that share their angles and offsets.

    backproject_angles overrides the angle labels used during
    backprojection (they need not lie in [0, pi) or be ordered, but must
    be finite); the default uses the sinograms' own labels.  Only the
    pixels of the inscribed unit disk (the region covered by every
    projection) are backprojected; the others are 0.  Each sinogram is
    filtered on its own.  Each angle's geometry (every pixel's offset
    l = x cos + y sin, its interpolation index i0 and weight t) is
    computed once and read by every sinogram's gathers, each into its own
    accumulator, so a sinogram's reconstruction is bitwise the one it
    gets alone.

    Every row is weighted pi / N, so the backprojection angles are assumed
    evenly spaced: theta + a/2 is, the true jittered angles theta + d are not."""
    sinos = [s] if isinstance(s, Sinogram) else list(s)
    if n_out < MIN_SIZE:
        raise TomoError(f"output size must be at least {MIN_SIZE}")
    if filter not in FILTERS:
        raise TomoError(f"unknown filter {filter!r}")
    if not sinos:
        raise TomoError("need at least one sinogram")
    first = sinos[0]
    for other in sinos[1:]:
        if not (np.array_equal(other.angles, first.angles)
                and np.array_equal(other.offsets, first.offsets)):
            raise TomoError("sinograms must share their angles and offsets")
    if len(first.angles) < 2:
        raise TomoError("need at least two angles for reconstruction")
    bp_angles = (
        first.angles if backproject_angles is None else np.asarray(backproject_angles)
    )
    if len(bp_angles) != len(first.angles):
        raise TomoError("backproject_angles length must match the angle count")
    if not np.isfinite(bp_angles).all():
        raise TomoError("backproject_angles must be finite")
    n_off = first.offsets.size
    n_pad = 1 << int(math.ceil(math.log2(2 * n_off)))
    H = _ramp_filter(n_pad, first.d_offset, filter)
    filtered = [
        np.ascontiguousarray(
            np.fft.ifft(np.fft.fft(o.field.values, n=n_pad, axis=1) * H[None, :], axis=1)
            .real[:, :n_off])
        for o in sinos
    ]

    c = (np.arange(n_out) + 0.5) * (2.0 / n_out) - 1.0
    c2 = c * c
    disk = c2[:, None] + c2[None, :] <= 1.0  # x^2 + y^2 <= 1, x along axis 0
    X, Y = (c[i] for i in np.nonzero(disk))  # only the disk's pixels
    accs = [np.zeros(X.size) for _ in sinos]
    # per-angle buffers, filled in place by the operations of
    # acc += (1 - t) * row[i0] + t * row[i0 + 1] in their usual order
    fi, t, g = (np.empty(X.size) for _ in range(3))
    i0 = np.empty(X.size, dtype=np.int64)
    l0 = first.offsets[0]
    dl = first.d_offset
    for j, th in enumerate(bp_angles):
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
        for rows, acc in zip(filtered, accs):
            row = rows[j]
            # fi is free once t is known; 1 - t is formed per sinogram, as a
            # fourth buffer to keep it in measured slower
            u = np.subtract(1, t, out=fi)
            u *= row.take(i0, out=g)
            row[1:].take(i0, out=g)  # row[i0 + 1]
            g *= t
            u += g
            acc += u
    outs = []
    for acc in accs:
        acc *= math.pi / len(first.angles)
        out = np.zeros((n_out, n_out))
        out[disk] = acc
        outs.append(ScalarField(out, 2.0 / n_out, 2.0 / n_out))
    return outs[0] if isinstance(s, Sinogram) else outs
