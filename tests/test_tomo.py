import math
import re
import tracemalloc

import numpy as np
import pytest

from dispflow import tomo
from dispflow.grid import ScalarField
from dispflow.tomo import (
    AngularPerturbation,
    Sinogram,
    TomoError,
    _BLOCK,
    _project,
    _ray_spans,
    _support_octagon,
    angle_count,
    angle_grid,
    default_offsets,
    fbp,
    radon,
    radon_perturbed,
    sample_uniform_displacement,
    shepp_logan,
)


def disk_image(n: int, r: float = 0.6, supersample: int = 4) -> ScalarField:
    """Centered disk rasterized with area-weighted (antialiased) edges."""
    m = n * supersample
    c = (np.arange(m) + 0.5) * 2.0 / m - 1.0
    x, y = np.meshgrid(c, c, indexing="ij")
    fine = (x * x + y * y <= r * r).astype(float)
    coarse = fine.reshape(n, supersample, n, supersample).mean(axis=(1, 3))
    return ScalarField(coarse, 2.0 / n, 2.0 / n)


ANGLES_90 = np.arange(90) * math.pi / 90


class TestPhantom:
    def test_shape_and_range(self):
        ph = shepp_logan(64)
        assert ph.shape == (64, 64)
        # ellipse intensities can cancel to tiny negatives at rounding level
        assert ph.values.min() >= -1e-12
        assert ph.values.max() <= 1.01

    def test_variants_differ(self):
        a = shepp_logan(64, "high-contrast")
        b = shepp_logan(64, "standard")
        assert not np.allclose(a.values, b.values)

    def test_unknown_variant(self):
        with pytest.raises(TomoError):
            shepp_logan(64, "nope")

    def test_deterministic(self):
        assert np.array_equal(shepp_logan(32).values, shepp_logan(32).values)

    def test_checks_variant_then_size(self):
        with pytest.raises(TomoError, match=r"^unknown phantom variant 'nope'$"):
            shepp_logan(8, "nope")
        with pytest.raises(TomoError, match=r"^phantom size must be at least 16$"):
            shepp_logan(8)


class TestAngleGrid:
    @pytest.mark.parametrize("step", [math.pi / 90, math.pi / 45, 0.1, 2.0])
    def test_matches_the_rule_bitwise(self, step):
        grid = angle_grid(step)
        ref = np.arange(round(math.pi / step)) * step
        assert grid.dtype == ref.dtype and grid.tobytes() == ref.tobytes()
        assert angle_count(step) == grid.size

    @pytest.mark.parametrize("step", [0.0, math.nan, math.inf, -0.1, 4.0, 5e-324, 1e-300])
    def test_fewer_than_two_angles_rejected(self, step):
        # 5e-324: pi / step overflows to inf; 1e-300: more angles than numpy can
        # index, which escaped as "Maximum allowed size exceeded"
        msg = f"angle_step must give at least two angles in [0, pi), got {step}"
        for fn in (angle_count, angle_grid):
            with pytest.raises(TomoError, match=f"^{re.escape(msg)}$"):
                fn(step)

    def test_count_builds_no_grid(self):
        tracemalloc.start()
        try:
            assert angle_count(1e-7) == 31415927  # a 251 MB grid
            assert tracemalloc.get_traced_memory()[1] < 1_000_000
        finally:
            tracemalloc.stop()


class TestSinogramType:
    def test_angle_validation(self):
        field = ScalarField(np.zeros((4, 8)))
        good = np.array([0.0, 0.5, 1.0, 2.0])
        offs = np.linspace(-1, 1, 8)
        Sinogram(field, good, offs)
        with pytest.raises(TomoError):
            Sinogram(field, good[::-1].copy(), offs)
        with pytest.raises(TomoError):
            Sinogram(field, good + 2.0, offs)  # beyond pi

    # each was accepted and failed later: in fbp as "backproject_angles must be
    # finite", "field contains non-finite values" or a ZeroDivisionError
    @pytest.mark.parametrize("which,index,bad,msg", [
        ("angles", 2, math.nan, "angles must lie in [0, pi)"),
        ("offsets", 4, math.nan, "offsets must be finite and strictly increasing"),
        ("offsets", 7, math.inf, "offsets must be finite and strictly increasing"),
        ("offsets", slice(None), 0.5, "offsets must be finite and strictly increasing"),
        ("offsets", slice(None, None, -1), np.linspace(-1, 1, 8),
         "offsets must be finite and strictly increasing"),
    ])
    def test_geometry_fbp_cannot_use_rejected(self, which, index, bad, msg):
        geometry = {"angles": np.array([0.0, 0.5, 1.0, 2.0]), "offsets": np.linspace(-1, 1, 8)}
        geometry[which][index] = bad
        with pytest.raises(TomoError, match=f"^{re.escape(msg)}$"):
            Sinogram(ScalarField(np.zeros((4, 8))), **geometry)


class TestRadon:
    def test_zero_image_gives_zero_sinogram(self):
        f = ScalarField(np.zeros((32, 32)))
        s = radon(f, ANGLES_90[:10])
        assert np.allclose(s.field.values, 0.0)

    def test_linearity(self):
        ph = shepp_logan(32)
        s1 = radon(ph, ANGLES_90[:8]).field.values
        s2 = radon(ph.with_values(2.0 * ph.values), ANGLES_90[:8]).field.values
        assert np.allclose(s2, 2.0 * s1, atol=1e-12)

    def test_mass_conservation_across_angles(self):
        # the integral of each projection equals the image mass
        d = disk_image(64)
        s = radon(d, ANGLES_90[::10])
        masses = s.field.values.sum(axis=1) * s.d_offset
        assert np.std(masses) / np.mean(masses) < 5e-3

    def test_disk_projsection_is_angle_invariant(self):
        d = disk_image(64)
        s = radon(d, np.array([0.0, 0.4, 1.1, 2.6]))
        rows = s.field.values
        for j in range(1, rows.shape[0]):
            assert np.allclose(rows[j], rows[0], atol=2e-2 * rows[0].max())

    def test_chord_length_oracle(self):
        # centered disk of radius r: projection = 2*sqrt(r^2 - l^2),
        # compared away from the tangent offsets where any pixelized
        # disk has an O(sqrt(h)) rim error
        n, r = 256, 0.6
        d = disk_image(n, r, supersample=8)
        s = radon(d, np.linspace(0, math.pi, 10, endpoint=False))
        l = s.offsets
        expected = 2.0 * np.sqrt(np.maximum(r * r - l * l, 0.0))
        inner = np.abs(l) <= r - 2.0 * (2.0 / n)
        err = np.abs(s.field.values[:, inner] - expected[None, inner])
        assert err.max() <= 0.01 * 2 * r

    def test_non_square_rejected(self):
        with pytest.raises(TomoError):
            radon(ScalarField(np.zeros((16, 17))), ANGLES_90[:4])

    def test_empty_angles_rejected(self):
        with pytest.raises(TomoError):
            radon(ScalarField(np.zeros((16, 16))), np.array([]))

    @pytest.mark.parametrize("n_offsets", [0, 1])
    def test_fewer_than_two_offsets_rejected(self, n_offsets, monkeypatch):
        def no_projection(*args):
            raise AssertionError("projected before rejecting the offsets")

        monkeypatch.setattr(tomo, "_project", no_projection)
        ph, angles = shepp_logan(16), np.arange(4) * math.pi / 4
        pert = sample_uniform_displacement(angles, 0.1, seed=1)
        with pytest.raises(TomoError, match=rf"^need at least 2 detector offsets, got {n_offsets}$"):
            radon(ph, angles, n_offsets)
        with pytest.raises(TomoError, match=rf"^need at least 2 detector offsets, got {n_offsets}$"):
            radon_perturbed(ph, angles, n_offsets, pert)


def _masked_bilinear(img, x, y, n):
    """Reference gather: bilinear sample of img at (x, y), zero outside,
    with an explicit bounds mask per neighbour."""
    h = 2.0 / n
    fx = (x + 1.0) / h - 0.5
    fy = (y + 1.0) / h - 0.5
    i0 = np.floor(fx).astype(np.int64)
    j0 = np.floor(fy).astype(np.int64)
    tx = fx - i0
    ty = fy - j0
    out = np.zeros(x.shape)
    for di, dj, wgt in (
        (0, 0, (1 - tx) * (1 - ty)),
        (1, 0, tx * (1 - ty)),
        (0, 1, (1 - tx) * ty),
        (1, 1, tx * ty),
    ):
        ii = i0 + di
        jj = j0 + dj
        ok = (ii >= 0) & (ii < n) & (jj >= 0) & (jj < n)
        out[ok] += wgt[ok] * img[ii[ok], jj[ok]]
    return out


def _masked_project(f, angles, offsets):
    """Reference projector on the masked gather (same samples and weights)."""
    n = f.n1
    half = math.sqrt(2.0)
    step = 1.0 / n
    nt = int(math.ceil(2.0 * half / step)) + 1
    t = np.linspace(-half, half, nt)
    h = t[1] - t[0]
    wgt = np.full(nt, h)
    wgt[0] = wgt[-1] = 0.5 * h
    rows = np.empty((len(angles), len(offsets)))
    for j, th in enumerate(angles):
        c, s = math.cos(th), math.sin(th)
        x = offsets[:, None] * c - t[None, :] * s
        y = offsets[:, None] * s + t[None, :] * c
        rows[j] = _masked_bilinear(f.values, x, y, n) @ wgt
    return rows


def _reference_case(n):
    rng = np.random.default_rng(n)
    f = ScalarField(rng.standard_normal((n, n)), 2.0 / n, 2.0 / n)
    base = np.arange(12) * math.pi / 12
    angles = np.concatenate([
        base + rng.uniform(0.0, math.pi / 18, base.size),
        [0.0, math.pi / 2, math.pi - 1e-12, math.pi + math.pi / 18],
        [-1e-3, -math.pi / 4, -math.pi - math.pi / 18],
    ])
    return f, angles


def _assert_matches_masked(new, ref, signs=True):
    """The projector's contract: within 1e-12 of the largest |row| of the
    masked reference (its sums run in another order), and, where signs,
    with the reference's sign bits."""
    assert new.shape == ref.shape
    assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()
    if signs:
        assert np.array_equal(np.signbit(new), np.signbit(ref))


class TestProjectorReference:
    @pytest.mark.parametrize("n_offsets", [None, 20])
    @pytest.mark.parametrize("n", [16, 33, 128])
    def test_padded_gather_equals_masked_gather(self, n, n_offsets):
        f, angles = _reference_case(n)
        offsets = default_offsets(n, n_offsets)
        new = _project(f, angles, offsets)
        _assert_matches_masked(new, _masked_project(f, angles, offsets))

    def test_large_image_matches_masked_gather(self):
        f, angles = _reference_case(256)
        offsets = default_offsets(256)
        _assert_matches_masked(_project(f, angles, offsets), _masked_project(f, angles, offsets))

    def test_spans_reaching_both_ray_ends_match_masked_gather(self):
        # nonzero corner pixels: the rays through the corners keep their
        # first and last samples, which the trapezoid rule weighs by half
        n = 33
        img = np.zeros((n, n))
        img[[0, 0, -1, -1], [0, -1, 0, -1]] = [1.5, -2.0, 0.75, 3.0]
        img[n // 2, n // 2] = 1.0
        f = ScalarField(img, 2.0 / n, 2.0 / n)
        offsets = np.linspace(-3.0, 3.0, 41)  # "wide": rays that miss the image too
        angles = np.concatenate([_CLIP_ANGLES, _DIAGONAL_ANGLES])
        nt = int(math.ceil(2.0 * math.sqrt(2.0) * n)) + 1
        t = np.linspace(-math.sqrt(2.0), math.sqrt(2.0), nt)
        firsts, ends = _ray_spans(_support_octagon(img), *_cos_sin(angles), offsets, t, 2.0 / n)
        assert np.any((firsts == 0) & (ends > 0)) and np.any((ends == nt) & (firsts < nt))
        _assert_matches_masked(_project(f, angles, offsets), _masked_project(f, angles, offsets))

    def test_linear_in_the_image(self):
        f, angles = _reference_case(33)
        g = ScalarField(np.random.default_rng(5).uniform(-1.0, 3.0, (33, 33)), 2.0 / 33, 2.0 / 33)
        offsets = default_offsets(33)
        a, b = 0.7, -2.5
        combined = _project(f.with_values(a * f.values + b * g.values), angles, offsets)
        _assert_matches_masked(
            combined, a * _project(f, angles, offsets) + b * _project(g, angles, offsets),
            signs=False)

    # one offset, one full block, one row past it, two full blocks
    @pytest.mark.parametrize(
        "n_offsets", [1, _BLOCK, _BLOCK + 1, 2 * _BLOCK], ids=lambda c: f"{c}off"
    )
    def test_block_edges_equal_masked_gather(self, n_offsets):
        f, angles = _reference_case(33)
        if n_offsets == 1:
            offsets = np.array([0.3])  # off-centre, so the ray is not symmetric
        else:
            offsets = default_offsets(33, n_offsets)
        new = _project(f, angles, offsets)
        assert new.shape == (angles.size, n_offsets)
        _assert_matches_masked(new, _masked_project(f, angles, offsets))


def _pixel(n, i, j):
    img = np.zeros((n, n))
    img[i, j] = 1.0
    return ScalarField(img, 2.0 / n, 2.0 / n)


def _negative_patch(n):
    img = np.zeros((n, n))
    img[n // 2 - 3 : n // 2 + 2, 4:9] = -0.7 * (1.0 + np.arange(5) / 10.0)
    return ScalarField(img, 2.0 / n, 2.0 / n)


_N_CLIP = 32
# single pixels at the four corners and the middle of the four edges
_PIXELS = [(0, 0), (0, 31), (31, 0), (31, 31), (0, 16), (16, 0), (31, 16), (16, 31)]
_CLIP_IMAGES = {
    **{f"pixel{i}_{j}": _pixel(_N_CLIP, i, j) for i, j in _PIXELS},
    "shepp_logan": shepp_logan(_N_CLIP),
    "disk": disk_image(_N_CLIP, 0.5),
    "zero": ScalarField(np.zeros((_N_CLIP, _N_CLIP))),
    "negative_patch": _negative_patch(_N_CLIP),
}
# exactly 0 (sin = 0) and pi/2, generic, negative and >= pi
_CLIP_ANGLES = np.array([
    0.0, math.pi / 2, 0.3, 1.1, 2.0, 2.9,
    -1e-3, -math.pi / 4, -2.5, math.pi, math.pi + 0.4, 5.0, 2 * math.pi + 1.2,
])


def _line(n, anti):
    """A diagonal (i == j) or anti-diagonal (i + j == n - 1) line of pixels:
    the octagon's corner cuts skip most of its bounding box."""
    img = np.zeros((n, n))
    i = np.arange(n)
    img[i, n - 1 - i if anti else i] = 1.0 + i / n
    return ScalarField(img, 2.0 / n, 2.0 / n)


_LINE_IMAGES = {"diagonal": _line(_N_CLIP, False), "anti_diagonal": _line(_N_CLIP, True)}
# exactly 0, and the angles whose rays run along or across the diagonals
_DIAGONAL_ANGLES = np.array([0.0, math.pi / 4, -math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4])


def _cos_sin(angles):
    return (np.array([math.cos(th) for th in angles]),
            np.array([math.sin(th) for th in angles]))


def _box_spans(values, c, s, offsets, t, px):
    """Reference span rule on the support box alone (the projector's rule
    before the octagon): the bounding box of the nonzero pixels, dilated by
    one pixel, crossed by each ray at cos c and sin s (slab method) and
    widened by one sample per end."""
    support = (values != 0.0) | np.signbit(values)
    rows = np.flatnonzero(support.any(axis=1))
    cols = np.flatnonzero(support.any(axis=0))
    nt = t.size
    if rows.size == 0:
        none = np.zeros(offsets.size, dtype=np.intp)
        return none, none

    def slab(f0, d, lo, hi):
        if d == 0.0:
            inside = (lo <= f0) & (f0 <= hi)
            return np.where(inside, -np.inf, np.inf), np.where(inside, np.inf, -np.inf)
        a, b = (lo - f0) / d, (hi - f0) / d
        return (a, b) if d > 0 else (b, a)

    x0, x1 = slab((offsets * c + 1.0) / px - 0.5, -s / px, rows[0] - 1 - 1e-6, rows[-1] + 1 + 1e-6)
    y0, y1 = slab((offsets * s + 1.0) / px - 0.5, c / px, cols[0] - 1 - 1e-6, cols[-1] + 1 + 1e-6)
    h = t[1] - t[0]
    first = np.clip(np.ceil((np.maximum(x0, y0) - t[0]) / h) - 1, 0, nt)
    end = np.clip(np.floor((np.minimum(x1, y1) - t[0]) / h) + 2, first, nt)
    return first.astype(np.intp), end.astype(np.intp)


class TestSupportClipping:
    # "wide" also has offsets past the image diagonal, whose rays miss it
    @pytest.mark.parametrize("n_offsets", [None, _BLOCK - 1, _BLOCK + 1, "wide"])
    @pytest.mark.parametrize("name", sorted(_CLIP_IMAGES))
    def test_clipped_projector_equals_masked_gather(self, name, n_offsets):
        f = _CLIP_IMAGES[name]
        if n_offsets == "wide":
            offsets = np.linspace(-3.0, 3.0, 41)
        else:
            offsets = default_offsets(_N_CLIP, n_offsets)
        new = _project(f, _CLIP_ANGLES, offsets)
        _assert_matches_masked(new, _masked_project(f, _CLIP_ANGLES, offsets))

    @pytest.mark.parametrize("n_offsets", [None, _BLOCK + 1])
    @pytest.mark.parametrize("name", sorted(_LINE_IMAGES))
    def test_octagon_clipped_lines_equal_masked_gather(self, name, n_offsets):
        f = _LINE_IMAGES[name]
        offsets = default_offsets(_N_CLIP, n_offsets)
        new = _project(f, _DIAGONAL_ANGLES, offsets)
        _assert_matches_masked(new, _masked_project(f, _DIAGONAL_ANGLES, offsets))

    @pytest.mark.parametrize("name", ["pixel0_0", "pixel31_16", "negative_patch", "shepp_logan"])
    def test_spans_hold_every_nonzero_sample_and_a_zero_margin(self, name):
        # every sample outside a ray's span reads zero, and a span that does
        # not reach an end of the ray starts and ends on a zero sample: the
        # margin of at least one sample beyond the support octagon
        f = _CLIP_IMAGES[name]
        n = _N_CLIP
        offsets = default_offsets(n)
        nt = int(math.ceil(2.0 * math.sqrt(2.0) * n)) + 1
        t = np.linspace(-math.sqrt(2.0), math.sqrt(2.0), nt)
        octagon = _support_octagon(f.values)
        idx = np.arange(nt)
        skipped = 0
        firsts, ends = _ray_spans(octagon, *_cos_sin(_CLIP_ANGLES), offsets, t, 2.0 / n)
        for th, first, end in zip(_CLIP_ANGLES, firsts, ends):
            c, s = math.cos(th), math.sin(th)
            skipped += np.sum(nt - (end - first))
            x = offsets[:, None] * c - t[None, :] * s
            y = offsets[:, None] * s + t[None, :] * c
            vals = _masked_bilinear(f.values, x, y, n)
            inside = (idx >= first[:, None]) & (idx < end[:, None])
            assert np.all(vals[~inside] == 0.0)
            for i in np.flatnonzero(end > first):
                if first[i] > 0:
                    assert vals[i, first[i]] == 0.0
                if end[i] < nt:
                    assert vals[i, end[i] - 1] == 0.0
        assert skipped > 0  # the clipping skips samples

    def test_octagon_spans_lie_inside_the_box_spans(self):
        n = _N_CLIP
        offsets = np.linspace(-3.0, 3.0, 41)  # rays that miss the image too
        nt = int(math.ceil(2.0 * math.sqrt(2.0) * n)) + 1
        t = np.linspace(-math.sqrt(2.0), math.sqrt(2.0), nt)
        angles = np.concatenate([_CLIP_ANGLES, _DIAGONAL_ANGLES])
        cos, sin = _cos_sin(angles)
        for name, f in {**_CLIP_IMAGES, **_LINE_IMAGES}.items():
            firsts, ends = _ray_spans(_support_octagon(f.values), cos, sin, offsets, t, 2.0 / n)
            octagon_total = box_total = 0
            for c, s, first, end in zip(cos, sin, firsts, ends):
                box_first, box_end = _box_spans(f.values, c, s, offsets, t, 2.0 / n)
                assert np.all(end - first <= box_end - box_first), name
                kept = end > first
                assert np.all(first[kept] >= box_first[kept]), name
                assert np.all(end[kept] <= box_end[kept]), name
                octagon_total += int(np.sum(end - first))
                box_total += int(np.sum(box_end - box_first))
            if name in ("shepp_logan", "diagonal", "anti_diagonal"):
                assert octagon_total < box_total, name

    def test_negative_zero_pixels_count_as_support(self):
        # a -0.0 sample keeps its sign in the gather, so it must be built
        img = np.zeros((_N_CLIP, _N_CLIP))
        img[10:20, 12:15] = -0.0
        ones = np.zeros((_N_CLIP, _N_CLIP))
        ones[10:20, 12:15] = 1.0
        assert _support_octagon(img) == _support_octagon(ones) is not None
        assert _support_octagon(np.zeros((_N_CLIP, _N_CLIP))) is None


def _full_grid_fbp(s, n_out, filter="ram-lak", backproject_angles=None):
    """Reference FBP: backprojects every pixel, then zeroes those outside
    the unit disk."""
    bp_angles = s.angles if backproject_angles is None else np.asarray(backproject_angles)
    rows = s.field.values
    n_off = rows.shape[1]
    n_pad = 1 << int(math.ceil(math.log2(2 * n_off)))
    H = tomo._ramp_filter(n_pad, s.d_offset, filter)
    filtered = np.fft.ifft(np.fft.fft(rows, n=n_pad, axis=1) * H[None, :], axis=1)
    filtered = filtered.real[:, :n_off]
    c = (np.arange(n_out) + 0.5) * (2.0 / n_out) - 1.0
    X, Y = np.meshgrid(c, c, indexing="ij")
    out = np.zeros((n_out, n_out))
    for j, th in enumerate(bp_angles):
        l = X * math.cos(th) + Y * math.sin(th)
        fi = (l - s.offsets[0]) / s.d_offset
        i0 = np.clip(np.floor(fi).astype(np.int64), 0, n_off - 2)
        t = np.clip(fi - i0, 0.0, 1.0)
        out += (1 - t) * filtered[j, i0] + t * filtered[j, i0 + 1]
    out *= math.pi / len(s.angles)
    out[X * X + Y * Y > 1.0] = 0.0
    return out


class TestDiskOnlyFBP:
    @pytest.mark.parametrize("n_out", [16, 31, 64, 65])
    @pytest.mark.parametrize("override", [False, True], ids=["labels", "override"])
    def test_equals_full_grid_backprojection(self, n_out, override):
        ph = shepp_logan(48)
        pert = sample_uniform_displacement(ANGLES_90[::3], math.pi / 18, seed=2)
        s = radon_perturbed(ph, ANGLES_90[::3], None, pert)
        bp = s.angles + pert.d if override else None
        rec = fbp(s, n_out, backproject_angles=bp).values
        ref = _full_grid_fbp(s, n_out, backproject_angles=bp)
        assert np.array_equal(rec, ref)
        assert np.array_equal(np.signbit(rec), np.signbit(ref))

    @pytest.mark.parametrize("n_out", [16, 65])
    @pytest.mark.parametrize("override", [False, True], ids=["labels", "override"])
    def test_two_sinograms_equal_two_single_calls(self, n_out, override):
        # the run's corrected and raw sinograms: same angles and offsets
        ph = shepp_logan(48)
        pert = sample_uniform_displacement(ANGLES_90[::3], math.pi / 18, seed=2)
        jittered = radon_perturbed(ph, ANGLES_90[::3], None, pert)
        clean = radon(ph, ANGLES_90[::3])
        bp = jittered.angles + pert.d if override else None
        pair = fbp([jittered, clean], n_out, backproject_angles=bp)
        assert len(pair) == 2
        for s, rec in zip((jittered, clean), pair):
            alone = fbp(s, n_out, backproject_angles=bp)
            assert rec.values.tobytes() == alone.values.tobytes()
            assert rec.values.tobytes() == _full_grid_fbp(s, n_out, backproject_angles=bp).tobytes()
        (one,) = fbp((clean,), n_out, backproject_angles=bp)
        assert one.values.tobytes() == pair[1].values.tobytes()

    @pytest.mark.parametrize("other", ["angles", "offsets"])
    def test_sinograms_with_other_geometry_are_one_line(self, other):
        s = radon(shepp_logan(32), ANGLES_90[::3])
        if other == "angles":
            t = radon(shepp_logan(32), ANGLES_90[1::3])
        else:
            t = Sinogram(s.field, s.angles, 0.5 * s.offsets)
        with pytest.raises(TomoError, match=r"^sinograms must share their angles and offsets$"):
            fbp([s, t], 32)


class TestAngleWrapping:
    def test_shifted_angles_wrap_into_the_sinogram(self):
        # the old failure: the last rows of angles + a/2 lie at or past pi
        ph = shepp_logan(32)
        a = math.pi / 18
        angles = ANGLES_90 + a / 2
        s = radon(ph, angles)
        wrapped = angles >= math.pi
        assert wrapped.sum() == 2
        assert np.all(np.diff(s.angles) > 0) and s.angles[-1] < math.pi
        k = int(wrapped.sum())
        assert np.array_equal(s.angles[:k], angles[wrapped] - math.pi)
        assert np.array_equal(s.angles[k:], angles[~wrapped])
        # unwrapped rows are the plain projections, bit for bit
        offsets = default_offsets(32)
        assert np.array_equal(s.field.values[k:], _project(ph, angles[~wrapped], offsets))
        # a wrapped row is the projection at theta - pi
        direct = _project(ph, angles[wrapped] - math.pi, offsets)
        scale = np.abs(direct).max()
        assert np.abs(s.field.values[:k] - direct).max() <= 1e-12 * scale

    def test_negative_angle_wraps_up(self):
        ph = shepp_logan(32)
        s = radon(ph, np.array([-0.2, 0.5]))
        assert s.angles[0] == 0.5
        assert s.angles[1] == pytest.approx(math.pi - 0.2, abs=1e-15)
        direct = _project(ph, np.array([math.pi - 0.2]), default_offsets(32))[0]
        assert np.abs(s.field.values[1] - direct).max() <= 1e-12 * np.abs(direct).max()

    def test_angles_in_range_are_byte_identical(self):
        ph = shepp_logan(32)
        angles = np.array([0.0, 0.4, 1.1, math.pi - 1e-12])
        s = radon(ph, angles)
        assert s.angles.tobytes() == angles.tobytes()
        rows = _project(ph, angles, default_offsets(32))
        assert s.field.values.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad):
        with pytest.raises(TomoError, match=r"^angles and displacements must be finite$"):
            radon(shepp_logan(16), np.array([0.1, bad]))

    @pytest.mark.parametrize("angles", [[0.0, math.pi], [0.3, 0.3], [2.0, 2.0 - math.pi]])
    def test_coinciding_labels_rejected(self, angles):
        with pytest.raises(TomoError, match=r"^angles \S+ and \S+ coincide after wrapping mod pi$"):
            radon(shepp_logan(16), np.array(angles))


class TestPerturbation:
    def test_sample_respects_bound_and_seed(self):
        p1 = sample_uniform_displacement(ANGLES_90, 0.1, seed=3)
        p2 = sample_uniform_displacement(ANGLES_90, 0.1, seed=3)
        assert np.array_equal(p1.d, p2.d)
        assert np.all((p1.d >= 0) & (p1.d <= 0.1))
        p3 = sample_uniform_displacement(ANGLES_90, 0.1, seed=4)
        assert not np.array_equal(p1.d, p3.d)

    @pytest.mark.parametrize("bound", [-0.1, math.nan, math.inf])
    def test_bound_not_non_negative_and_finite_rejected(self, bound):
        # NaN drew all-zero displacements; inf failed inside numpy's uniform
        msg = f"bound must be non-negative and finite, got {bound}"
        with pytest.raises(TomoError, match=f"^{re.escape(msg)}$"):
            sample_uniform_displacement(ANGLES_90, bound, seed=3)

    def test_negative_displacement_rejected(self):
        with pytest.raises(TomoError):
            AngularPerturbation(np.array([-0.1, 0.0]), 0.2)

    def test_nan_displacement_rejected(self):
        # NaN failed both range comparisons and was accepted
        with pytest.raises(TomoError, match=r"^displacements must lie in \[0, bound\]$"):
            AngularPerturbation(np.array([0.1, math.nan]), 0.2)

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
    def test_noise_sigma_not_non_negative_and_finite_rejected(self, sigma):
        # NaN added no noise; inf failed later, in the ScalarField check
        ph = shepp_logan(16)
        pert = sample_uniform_displacement(ANGLES_90[:4], 0.0, seed=0)
        msg = f"noise_sigma must be non-negative and finite, got {sigma}"
        with pytest.raises(TomoError, match=f"^{re.escape(msg)}$"):
            radon_perturbed(ph, ANGLES_90[:4], None, pert, sigma, 1)

    def test_zero_bound_matches_clean_radon(self):
        ph = shepp_logan(32)
        pert = sample_uniform_displacement(ANGLES_90[:8], 0.0, seed=0)
        a = radon_perturbed(ph, ANGLES_90[:8], None, pert).field.values
        b = radon(ph, ANGLES_90[:8]).field.values
        assert np.array_equal(a, b)

    def test_perturbation_changes_sinogram(self):
        ph = shepp_logan(32)
        pert = sample_uniform_displacement(ANGLES_90[:8], math.pi / 18, seed=1)
        a = radon_perturbed(ph, ANGLES_90[:8], None, pert).field.values
        b = radon(ph, ANGLES_90[:8]).field.values
        assert not np.allclose(a, b)

    def test_noise_is_seeded(self):
        ph = shepp_logan(32)
        pert = sample_uniform_displacement(ANGLES_90[:8], 0.0, seed=0)
        a = radon_perturbed(ph, ANGLES_90[:8], None, pert, 0.01, 5).field.values
        b = radon_perturbed(ph, ANGLES_90[:8], None, pert, 0.01, 5).field.values
        assert np.array_equal(a, b)

    def test_length_mismatch_rejected(self):
        ph = shepp_logan(32)
        pert = sample_uniform_displacement(ANGLES_90[:4], 0.1, seed=0)
        with pytest.raises(TomoError):
            radon_perturbed(ph, ANGLES_90[:8], None, pert)


class TestFBP:
    def test_round_trip_quality(self):
        ph = shepp_logan(64)
        rec = fbp(radon(ph, ANGLES_90), 64)
        err = np.linalg.norm(rec.values - ph.values) / np.linalg.norm(ph.values)
        assert err < 0.35

    def test_more_angles_help(self):
        ph = shepp_logan(64)
        e = {}
        for n_ang in (45, 90):
            angles = np.arange(n_ang) * math.pi / n_ang
            rec = fbp(radon(ph, angles), 64)
            e[n_ang] = np.linalg.norm(rec.values - ph.values)
        assert e[90] < e[45]

    def test_output_masked_to_unit_disk(self):
        ph = shepp_logan(32)
        rec = fbp(radon(ph, ANGLES_90[:30]), 32)
        c = (np.arange(32) + 0.5) * 2.0 / 32 - 1.0
        x, y = np.meshgrid(c, c, indexing="ij")
        assert np.all(rec.values[x * x + y * y > 1.0] == 0.0)

    def test_unknown_filter(self):
        ph = shepp_logan(32)
        s = radon(ph, ANGLES_90[:8])
        with pytest.raises(TomoError):
            fbp(s, 32, filter="boxcar")

    def test_filter_variants_run(self):
        ph = shepp_logan(32)
        s = radon(ph, ANGLES_90[:30])
        for kind in ("ram-lak", "shepp-logan-filter", "none"):
            rec = fbp(s, 32, filter=kind)
            assert np.all(np.isfinite(rec.values))

    def test_backproject_angles_override(self):
        ph = shepp_logan(32)
        s = radon(ph, ANGLES_90[:30])
        rec1 = fbp(s, 32)
        rec2 = fbp(s, 32, backproject_angles=s.angles + 0.1)
        assert not np.allclose(rec1.values, rec2.values)
        with pytest.raises(TomoError):
            fbp(s, 32, backproject_angles=s.angles[:-1])

    def test_small_output_rejected(self):
        ph = shepp_logan(32)
        with pytest.raises(TomoError):
            fbp(radon(ph, ANGLES_90[:8]), 8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_backproject_angles_rejected(self, bad):
        s = radon(shepp_logan(32), ANGLES_90[:8])
        angles = s.angles.copy()
        angles[3] = bad
        with pytest.raises(TomoError, match=r"^backproject_angles must be finite$"):
            fbp(s, 32, backproject_angles=angles)


class TestOffsets:
    def test_default_offsets_cover_diagonal(self):
        offs = default_offsets(64)
        assert offs[0] == pytest.approx(-math.sqrt(2))
        assert offs[-1] == pytest.approx(math.sqrt(2))
        assert len(offs) % 2 == 1  # odd count puts a sample at l=0
