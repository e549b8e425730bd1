import math

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


class TestProjectorReference:
    @pytest.mark.parametrize("n_offsets", [None, 20])
    @pytest.mark.parametrize("n", [16, 33, 128])
    def test_padded_gather_equals_masked_gather(self, n, n_offsets):
        f, angles = _reference_case(n)
        offsets = default_offsets(n, n_offsets)
        new = _project(f, angles, offsets)
        assert np.array_equal(new, _masked_project(f, angles, offsets))

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
        assert np.array_equal(new, _masked_project(f, angles, offsets))


class TestPerturbation:
    def test_sample_respects_bound_and_seed(self):
        p1 = sample_uniform_displacement(ANGLES_90, 0.1, seed=3)
        p2 = sample_uniform_displacement(ANGLES_90, 0.1, seed=3)
        assert np.array_equal(p1.d, p2.d)
        assert np.all((p1.d >= 0) & (p1.d <= 0.1))
        p3 = sample_uniform_displacement(ANGLES_90, 0.1, seed=4)
        assert not np.array_equal(p1.d, p3.d)

    def test_negative_displacement_rejected(self):
        with pytest.raises(TomoError):
            AngularPerturbation(np.array([-0.1, 0.0]), 0.2)

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


class TestOffsets:
    def test_default_offsets_cover_diagonal(self):
        offs = default_offsets(64)
        assert offs[0] == pytest.approx(-math.sqrt(2))
        assert offs[-1] == pytest.approx(math.sqrt(2))
        assert len(offs) % 2 == 1  # odd count puts a sample at l=0
