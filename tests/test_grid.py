import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dispflow.grid import (
    Axis,
    GridError,
    ScalarField,
    diff,
    diff_matrix,
    norm_l2,
    norm_linf,
)


def field_strategy(min_side=5, max_side=12):
    shapes = st.tuples(
        st.integers(min_side, max_side), st.integers(min_side, max_side)
    )
    return shapes.flatmap(
        lambda s: arrays(
            float, s, elements=st.floats(-100, 100, allow_nan=False)
        ).map(ScalarField)
    )


class TestScalarField:
    def test_default_spacing_is_reciprocal_size(self):
        f = ScalarField(np.zeros((10, 20)))
        assert f.dx1 == pytest.approx(0.1)
        assert f.dx2 == pytest.approx(0.05)

    def test_rejects_non_finite(self):
        with pytest.raises(GridError):
            ScalarField(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(GridError):
            ScalarField(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_rejects_1d(self):
        with pytest.raises(GridError):
            ScalarField(np.zeros(5))

    def test_coords_match_spacing(self):
        f = ScalarField(np.zeros((4, 8)), dx1=0.5, dx2=0.25)
        assert np.allclose(np.diff(f.coords(Axis.X1)), 0.5)
        assert np.allclose(np.diff(f.coords(Axis.X2)), 0.25)


class TestDiff:
    def test_constant_has_zero_derivative(self):
        f = ScalarField(np.full((8, 8), 3.7))
        for axis in Axis:
            for k in (1, 2):
                assert np.allclose(diff(f, axis, k).values, 0.0)

    def test_linear_x1_first_derivative(self):
        n = 16
        x1 = np.arange(n)[:, None] / n
        f = ScalarField(np.broadcast_to(x1, (n, n)).copy())
        d = diff(f, Axis.X1, 1)
        assert np.allclose(d.values, 1.0)

    def test_quadratic_second_derivative(self):
        n = 16
        x1 = (np.arange(n)[:, None] / n) ** 2
        f = ScalarField(np.broadcast_to(x1, (n, n)).copy())
        d = diff(f, Axis.X1, 2)
        assert np.allclose(d.values, 2.0)

    def test_axes_are_independent(self):
        rng = np.random.default_rng(0)
        f = ScalarField(rng.standard_normal((9, 9)))
        d1 = diff(f, Axis.X1, 1).values
        d2 = diff(f, Axis.X2, 1).values
        assert np.allclose(d1, diff(f.with_values(f.values), Axis.X1, 1).values)
        assert not np.allclose(d1, d2)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((7, 7))
        f = ScalarField(v, dx1=0.3, dx2=0.3)
        ft = ScalarField(v.T, dx1=0.3, dx2=0.3)
        for k in (1, 2):
            assert np.allclose(
                diff(f, Axis.X1, k).values, diff(ft, Axis.X2, k).values.T
            )

    def test_invalid_order(self):
        f = ScalarField(np.zeros((8, 8)))
        with pytest.raises(GridError):
            diff(f, Axis.X1, 3)

    def test_too_small_grid(self):
        f = ScalarField(np.zeros((3, 8)))
        with pytest.raises(GridError):
            diff(f, Axis.X1, 2)

    @given(field_strategy())
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, f):
        g = f.with_values(2.5 * f.values)
        for k in (1, 2):
            assert np.allclose(
                diff(g, Axis.X1, k).values,
                2.5 * diff(f, Axis.X1, k).values,
                atol=1e-9 * max(1.0, np.abs(f.values).max()),
            )

    def test_matches_diff_matrix(self):
        rng = np.random.default_rng(2)
        f = ScalarField(rng.standard_normal((10, 6)), dx1=0.2, dx2=0.5)
        for k in (1, 2):
            mat = diff_matrix(10, 0.2, k)
            assert np.allclose(diff(f, Axis.X1, k).values, mat @ f.values)
            mat2 = diff_matrix(6, 0.5, k)
            assert np.allclose(diff(f, Axis.X2, k).values, f.values @ mat2.T)


def _loop_diff_matrix(n, dx, k):
    """The row-by-row assembly diff_matrix used before it applied the
    shared stencil to the identity."""
    D = np.zeros((n, n))
    if k == 1:
        for i in range(1, n - 1):
            D[i, i - 1] = -0.5 / dx
            D[i, i + 1] = 0.5 / dx
        D[0, 0:3] = np.array([-1.5, 2.0, -0.5]) / dx
        D[-1, -3:] = np.array([0.5, -2.0, 1.5]) / dx
    else:
        h2 = dx * dx
        for i in range(1, n - 1):
            D[i, i - 1] = 1.0 / h2
            D[i, i] = -2.0 / h2
            D[i, i + 1] = 1.0 / h2
        D[0, 0:4] = np.array([2.0, -5.0, 4.0, -1.0]) / h2
        D[-1, -4:] = np.array([-1.0, 4.0, -5.0, 2.0]) / h2
    return D


class TestDiffMatrix:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [3, 4, 5, 9, 90, 183])
    def test_equals_row_assembly_bitwise(self, n, k):
        if n < 2 * k + 1:
            with pytest.raises(GridError):
                diff_matrix(n, 0.1, k)
            return
        for dx in (1.0, 0.1, 1.0 / 183, 2.0 / 90, 0.0123):
            D, ref = diff_matrix(n, dx, k), _loop_diff_matrix(n, dx, k)
            assert np.array_equal(D, ref)
            # signed zeros too: no -0.0 where the assembly left +0.0
            assert np.array_equal(np.signbit(D), np.signbit(ref))


class TestNorms:
    def test_l2_of_constant(self):
        f = ScalarField(np.full((10, 10), 2.0))  # spacing 0.1, area 1
        assert norm_l2(f) == pytest.approx(2.0)

    def test_linf(self):
        f = ScalarField(np.array([[0.0, -5.0], [3.0, 1.0]]))
        assert norm_linf(f) == 5.0

    @given(field_strategy())
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, f):
        g = f.with_values(np.roll(f.values, 1, axis=0))
        s = f.with_values(f.values + g.values)
        assert norm_l2(s) <= norm_l2(f) + norm_l2(g) + 1e-9
