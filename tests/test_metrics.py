import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispflow.grid import ScalarField
from dispflow.metrics import (
    MetricError,
    _crossings,
    interface_positions,
    interface_variance,
    metrics,
    strip_fwhm,
)


class TestMetrics:
    def test_identical_fields(self):
        f = ScalarField(np.arange(12.0).reshape(3, 4))
        rep = metrics(f, f)
        assert rep.rmse == 0.0
        assert rep.psnr == math.inf
        assert rep.rel_l2 == 0.0

    def test_known_values(self):
        a = ScalarField(np.array([[1.0, 1.0], [1.0, 1.0]]))
        b = ScalarField(np.array([[0.0, 0.0], [2.0, 2.0]]))
        rep = metrics(a, b)
        assert rep.rmse == pytest.approx(1.0)
        # range of b is 2, so psnr = 20 log10(2/1)
        assert rep.psnr == pytest.approx(20 * math.log10(2))
        assert rep.rel_l2 == pytest.approx(2.0 / math.sqrt(8.0))

    def test_shape_mismatch(self):
        with pytest.raises(MetricError):
            metrics(ScalarField(np.zeros((2, 3))), ScalarField(np.zeros((3, 2))))

    def test_zero_reference_with_error(self):
        with pytest.raises(MetricError):
            metrics(ScalarField(np.ones((2, 2))), ScalarField(np.zeros((2, 2))))

    def test_lines_format(self):
        rep = metrics(
            ScalarField(np.zeros((2, 2))),
            ScalarField(np.zeros((2, 2))),
            extras={"foo": 1.5},
        )
        lines = rep.lines()
        assert lines[0].startswith("rmse=")
        assert "foo=1.5" in lines

    @given(st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_rmse_scaling(self, seed):
        rng = np.random.default_rng(seed)
        b = ScalarField(rng.standard_normal((5, 5)))
        a = ScalarField(b.values + rng.standard_normal((5, 5)))
        r1 = metrics(a, b).rmse
        a2 = ScalarField(b.values + 2 * (a.values - b.values))
        assert metrics(a2, b).rmse == pytest.approx(2 * r1)


def _loop_crossings(line, level):
    """The per-sample loop _crossings ran before it was vectorized."""
    pos = []
    above = line >= level
    for i in range(len(line) - 1):
        if above[i] != above[i + 1]:
            pos.append(i + (level - line[i]) / (line[i + 1] - line[i]))
    return pos


class TestCrossings:
    def test_equals_the_loop_bitwise(self):
        rng = np.random.default_rng(3)
        steps = np.repeat(rng.integers(0, 3, 12), 3).astype(float)  # plateaus on the level
        for line in (rng.standard_normal(50), steps, 255.0 * rng.random(64), np.ones(5)):
            for level in (0.0, 1.0, 0.37, float(np.median(line))):
                assert _crossings(line, level).tolist() == [float(x) for x in _loop_crossings(line, level)]


class TestStripFWHM:
    def test_rectangular_strip(self):
        v = np.zeros((40, 6))
        v[10:20, :] = 1.0  # strip of width 10 along x1
        w = strip_fwhm(ScalarField(v))
        # half-max crossings sit half a sample outside the flat top
        assert np.allclose(w, 10.0)

    def test_triangular_profile(self):
        x = np.arange(41.0)
        prof = np.maximum(0.0, 10.0 - np.abs(x - 20.0))
        v = np.tile(prof[:, None], (1, 3))
        w = strip_fwhm(ScalarField(v))
        assert np.allclose(w, 10.0)

    def test_no_crossing_gives_nan(self):
        w = strip_fwhm(ScalarField(np.ones((10, 4))))
        assert np.all(np.isnan(w))

    def test_profile_axis_transpose(self):
        v = np.zeros((6, 40))
        v[:, 10:20] = 1.0
        w = strip_fwhm(ScalarField(v), axis_of_profile=1)
        assert np.allclose(w, 10.0)


class TestInterface:
    def test_straight_step(self):
        v = np.zeros((20, 5))
        v[12:, :] = 1.0
        pos = interface_positions(ScalarField(v))
        assert np.allclose(pos, 11.5)
        with pytest.raises(MetricError):
            interface_variance(ScalarField(np.zeros((3, 1))))

    def test_variance_of_wiggled_interface(self):
        n1, n2 = 32, 8
        s = 16 + np.array([0, 2, -2, 0, 2, -2, 0, 2])
        v = np.zeros((n1, n2))
        for j in range(n2):
            v[s[j] :, j] = 1.0
        var = interface_variance(ScalarField(v))
        assert var == pytest.approx(np.var(s.astype(float)))

    def test_flat_interface_zero_variance(self):
        v = np.zeros((16, 6))
        v[8:, :] = 1.0
        assert interface_variance(ScalarField(v)) == 0.0
