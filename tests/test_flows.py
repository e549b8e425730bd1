import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispflow.flows import (
    DT_FLOOR,
    FlowError,
    FlowParams,
    FlowState,
    StabilityError,
    evolve,
    flow_rhs,
    stable_dt,
)
from dispflow.grid import Axis, GridError, ScalarField, diff, diff_matrix, norm_linf


def smooth_field(seed: int, n: int = 16) -> ScalarField:
    rng = np.random.default_rng(seed)
    i = np.arange(n) / n
    v = np.zeros((n, n))
    for _ in range(4):
        a, b = rng.normal(size=2)
        f1, f2 = rng.integers(1, 4, size=2)
        v += a * np.outer(np.sin(f1 * np.pi * i), np.cos(f2 * np.pi * i)) + 0.2 * b
    return ScalarField(v)


ALL_VARIANTS = [(k, p, q) for k in (1, 2) for p in (1, 2) for q in (1, 2)]


class TestFlowParams:
    def test_rejects_bad_exponents(self):
        for bad in (dict(k=3), dict(p=0), dict(q=5)):
            with pytest.raises(FlowError):
                FlowParams(axis=Axis.X1, **{**dict(k=1, p=2, q=2), **bad})

    def test_rejects_bad_numerics(self):
        with pytest.raises(FlowError):
            FlowParams(axis=Axis.X1, k=1, p=1, q=2, beta=0.0)
        with pytest.raises(FlowError):
            FlowParams(axis=Axis.X1, k=1, p=2, q=2, cfl=0.0)
        # non-finite settings fail here, not as a StabilityError or silently
        for bad, msg in ((dict(eps=math.nan), "eps must be finite, got nan"),
                         (dict(eps=math.inf), "eps must be finite, got inf"),
                         (dict(p=1, beta=math.nan), "beta must be finite, got nan"),
                         (dict(p=1, beta=math.inf), "beta must be finite, got inf")):
            with pytest.raises(FlowError, match=f"^{re.escape(msg)}$"):
                FlowParams(axis=Axis.X1, **bad)


class TestFlowRhs:
    @pytest.mark.parametrize("k,p,q", ALL_VARIANTS)
    def test_constant_is_stationary(self, k, p, q):
        f = ScalarField(np.full((12, 12), 4.2))
        params = FlowParams(axis=Axis.X1, k=k, p=p, q=q)
        assert np.allclose(flow_rhs(f, params).values, 0.0)

    def test_affine_in_x1_is_stationary(self):
        # rows with distinct slopes and intercepts: zero rhs for i=X1 flows
        rng = np.random.default_rng(5)
        n = 16
        c1, c2 = rng.normal(size=(2, n))
        x1 = (np.arange(n) + 0.5) / n
        f = ScalarField(x1[:, None] * c1[None, :] + c2[None, :])
        for k, p, q in ALL_VARIANTS:
            params = FlowParams(axis=Axis.X1, k=k, p=p, q=q)
            rhs = flow_rhs(f, params).values
            # the even-reflection of an affine profile has a kink at the
            # boundary, so the fourth-order flow genuinely acts on the two
            # outermost rows; only the interior is stationary for k=2
            if k == 2:
                rhs = rhs[2:-2, :]
            # p=1 divides rounding noise in the vanishing derivative by
            # beta, so only p=2 is stationary to near machine precision;
            # for k=2 the rounding is further amplified by 1/dx^4
            tol = (1e-12 if k == 1 else 1e-8) if p == 2 else 1e-3
            assert np.abs(rhs).max() < tol, (k, p, q)

    def test_zero_mobility_freezes_x2_flow(self):
        # field constant along x1 has zero |d/dx1| mobility, so even the
        # i=X2 flow produces no motion
        n = 12
        v = np.broadcast_to(np.sin(np.arange(n)), (n, n)).copy()
        f = ScalarField(v)
        params = FlowParams(axis=Axis.X2, k=1, p=2, q=2)
        assert np.allclose(flow_rhs(f, params).values, 0.0)

    @pytest.mark.parametrize("k,p,q", ALL_VARIANTS)
    def test_rhs_finite_on_rough_data(self, k, p, q):
        rng = np.random.default_rng(6)
        f = ScalarField(rng.standard_normal((10, 10)))
        params = FlowParams(axis=Axis.X1, k=k, p=p, q=q)
        assert np.all(np.isfinite(flow_rhs(f, params).values))


class TestStableDt:
    def test_positive_and_scales_with_cfl(self):
        f = smooth_field(0)
        p1 = FlowParams(axis=Axis.X1, k=1, p=2, q=2, cfl=0.25)
        p2 = FlowParams(axis=Axis.X1, k=1, p=2, q=2, cfl=0.5)
        assert 0 < stable_dt(f, p1) < stable_dt(f, p2)

    def test_k2_much_stiffer_than_k1(self):
        f = smooth_field(1)
        d1 = stable_dt(f, FlowParams(axis=Axis.X1, k=1, p=2, q=2))
        d2 = stable_dt(f, FlowParams(axis=Axis.X1, k=2, p=2, q=2))
        assert d2 < d1


class TestEvolve:
    def test_zero_time_returns_input(self):
        f = smooth_field(2)
        st_ = evolve(f, FlowParams(axis=Axis.X1, k=1, p=2, q=2), 0.0)
        assert np.array_equal(st_.u.values, f.values)
        assert st_.steps == 0

    def test_negative_time_rejected(self):
        f = smooth_field(2)
        with pytest.raises(FlowError):
            evolve(f, FlowParams(axis=Axis.X1, k=1, p=2, q=2), -1.0)

    def test_infinite_time_needs_stop_residual(self):
        f = smooth_field(2)
        with pytest.raises(FlowError):
            evolve(f, FlowParams(axis=Axis.X1, k=1, p=2, q=2), np.inf)

    @pytest.mark.parametrize("t_end,kwargs,msg", [
        # each returned the input unchanged, ran to max_steps, or ran a step
        # count other than the one given
        (math.nan, dict(stop_residual=1.0), "t_end must be non-negative, got nan"),
        (math.inf, dict(stop_residual=math.nan), "stop_residual must be non-negative, got nan"),
        (1e-4, dict(stop_residual=-1.0), "stop_residual must be non-negative, got -1.0"),
        (1e-4, dict(max_steps=-3), "max_steps must be a positive int, got -3"),
        (1e-4, dict(max_steps=0), "max_steps must be a positive int, got 0"),
        (1e-4, dict(max_steps=2.5), "max_steps must be a positive int, got 2.5"),
    ])
    def test_bad_stop_settings_rejected(self, t_end, kwargs, msg):
        f = smooth_field(2)
        with pytest.raises(FlowError, match=f"^{re.escape(msg)}$"):
            evolve(f, FlowParams(axis=Axis.X1, k=1, p=2, q=2), t_end, **kwargs)

    def test_capped_counts_the_steps_the_cap_set(self):
        f = smooth_field(2)
        params = FlowParams(axis=Axis.X1, k=1, p=2, q=2)
        # a forced step far above the cap: the cap sets every dt but the
        # last, which the remaining time sets
        st_ = evolve(f, params, 1e-3, dt_override=1.0)
        assert st_.steps > 2 and st_.capped == st_.steps - 1
        assert evolve(f, params, 1e-3, dt_override=1.0, max_change=None).capped == 0
        assert evolve(f, params, 1e-4, dt_override=1e-7).capped == 0

    @pytest.mark.parametrize("name", ["dt_override", "max_change"])
    @pytest.mark.parametrize("bad", [-1e-6, 0.0, -0.1, math.nan, math.inf])
    def test_step_settings_must_be_finite_and_positive(self, name, bad):
        # a negative step ran backwards in time, a zero one spun to
        # max_steps and a NaN max_change dropped the cap
        f = smooth_field(2)
        with pytest.raises(FlowError, match=f"^{name} must be finite and positive, got {bad}$"):
            evolve(f, FlowParams(axis=Axis.X1, k=1, p=2, q=2), 1e-4, max_steps=3, **{name: bad})

    def test_step_settings_none_keeps_its_meaning(self):
        f = smooth_field(2)
        params = FlowParams(axis=Axis.X1, k=1, p=2, q=2)
        free = evolve(f, params, 1e-4, dt_override=None, max_change=None)
        capped = evolve(f, params, 1e-4, dt_override=None)
        assert free.t == capped.t == 1e-4 and free.steps <= capped.steps

    @pytest.mark.parametrize("k,p,q", [(1, 2, 2), (1, 1, 1), (2, 2, 2)])
    def test_max_principle_for_k1_and_bounded_for_k2(self, k, p, q):
        # the k=2 stencil's stable step is dx^2 times smaller, so it gets a
        # horizon it reaches within the step cap
        f = smooth_field(3)
        lo, hi = f.values.min(), f.values.max()
        t_end = 1e-4 if k == 1 else 7e-7
        st_ = evolve(
            f, FlowParams(axis=Axis.X1, k=k, p=p, q=q, beta=1e-3), t_end,
            max_steps=2000,
        )
        assert st_.steps > 0
        assert not st_.truncated
        margin = 0.0 if k == 1 else 0.5 * (hi - lo)
        assert st_.u.values.min() >= lo - margin - 1e-12
        assert st_.u.values.max() <= hi + margin + 1e-12

    def test_residual_series_recorded(self):
        f = smooth_field(4)
        st_ = evolve(f, FlowParams(axis=Axis.X1, k=1, p=2, q=2), 1e-4)
        assert len(st_.residuals) == st_.steps > 0
        assert all(np.isfinite(r) for r in st_.residuals)

    def test_deterministic(self):
        f = smooth_field(5)
        params = FlowParams(axis=Axis.X1, k=1, p=2, q=2)
        a = evolve(f, params, 1e-4).u.values
        b = evolve(f, params, 1e-4).u.values
        assert np.array_equal(a, b)

    def test_dt_override_is_respected(self):
        f = smooth_field(6)
        params = FlowParams(axis=Axis.X1, k=1, p=2, q=2)
        st_ = evolve(f, params, 1e-4, dt_override=1e-6)
        # 100 full steps plus possibly one rounding-remainder step
        assert 100 <= st_.steps <= 101
        assert st_.t == pytest.approx(1e-4)

    def test_stop_residual_halts_early(self):
        f = smooth_field(7)
        params = FlowParams(axis=Axis.X1, k=1, p=2, q=2)
        r0 = np.abs(flow_rhs(f, params).values).max()
        st_ = evolve(f, params, 1e9, stop_residual=0.5 * r0, max_steps=100000)
        assert st_.residuals[-1] < 0.5 * r0
        assert st_.t < 1e9

    def test_max_steps_short_of_t_end_warns(self):
        f = smooth_field(9)
        params = FlowParams(axis=Axis.X1, k=1, p=2, q=2)
        with pytest.warns(RuntimeWarning, match=r"max_steps=3: t = \S+ of t_end = 0\.0001$"):
            st_ = evolve(f, params, 1e-4, max_steps=3)
        assert st_.steps == 3 and st_.t < 1e-4
        assert st_.truncated

    @pytest.mark.filterwarnings("error")
    def test_huge_forced_step_raises(self):
        f = smooth_field(8)
        params = FlowParams(axis=Axis.X1, k=2, p=2, q=2)
        with pytest.raises(StabilityError):
            evolve(f, params, 1e4, dt_override=1e3, max_change=None)

    @given(st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_smoothing_never_expands_range_k1(self, seed):
        f = smooth_field(seed)
        lo, hi = f.values.min(), f.values.max()
        st_ = evolve(f, FlowParams(axis=Axis.X1, k=1, p=2, q=2), 5e-5)
        assert st_.u.values.min() >= lo - 1e-12
        assert st_.u.values.max() <= hi + 1e-12

    def test_truncated_only_when_max_steps_cuts_short(self):
        f = smooth_field(9)
        params = FlowParams(axis=Axis.X1, k=1, p=2, q=2)
        assert evolve(f, params, 1e-4).truncated is False
        r0 = np.abs(flow_rhs(f, params).values).max()
        st_ = evolve(f, params, 1e9, stop_residual=r0, max_steps=1)
        assert st_.steps == 0 and st_.truncated is False

    @pytest.mark.filterwarnings("ignore:evolve stopped at max_steps")
    @pytest.mark.parametrize("axis", list(Axis))
    @pytest.mark.parametrize("k", [1, 2])
    def test_never_writes_input_nor_shares_it(self, k, axis):
        # the loop updates one field buffer in place, its own copy of the
        # input: for X1 one column as a 1-D array when all columns are
        # equal, else the distinct columns; for X2 the transpose.  The
        # result is gathered from that buffer, also when no step runs
        base = rough_field(20 + k + int(axis))
        params = FlowParams(axis=axis, k=k, p=2, q=2)
        for columns in (slice(None), [3] * 11, [2, 0, 2, 5, 0, 0, 2]):  # distinct, equal, repeated
            f = base.with_values(base.values[:, columns].copy())
            before = f.values.copy()
            f.values.flags.writeable = False  # a write raises instead of passing silently
            for t_end, max_steps in ((0.0, 10), (1.0, 1), (1.0, 2), (1.0, 3)):
                st_ = evolve(f, params, t_end, max_steps=max_steps)
                assert st_.steps == (max_steps if t_end else 0)
                assert not np.shares_memory(st_.u.values, f.values)
                assert np.array_equal(f.values, before)
                ref = _ref_evolve(f, params, t_end, max_steps=max_steps)
                assert np.array_equal(st_.u.values, ref.u.values)

    @pytest.mark.parametrize(
        "shape,axis,k,p",
        [((2, 8), Axis.X1, 1, 2), ((8, 1), Axis.X2, 2, 2), ((8, 4), Axis.X2, 2, 1)],
    )
    def test_grid_too_small_is_a_grid_error(self, shape, axis, k, p):
        f = ScalarField(np.arange(shape[0] * shape[1], dtype=float).reshape(shape))
        params = FlowParams(axis=axis, k=k, p=p, q=2)
        bad = "X1" if shape[0] < 3 else "X2"
        with pytest.raises(GridError, match=rf"^axis {bad} has \d+ samples, need at least \d+ "):
            evolve(f, params, 1e-3)
        with pytest.raises(GridError):
            flow_rhs(f, params)
        with pytest.raises(GridError):
            stable_dt(f, params)


# ---------------------------------------------------------------------------
# Reference stepper: the ScalarField-based flow_rhs / stable_dt / evolve that
# the raw-array loop replaced, with the grid stencil it used: the same
# arithmetic in the same order, so every flow can be checked bitwise.


def _ref_diff(f, axis, order):
    v = f.values.T if axis == Axis.X2 else f.values
    dx = f.spacing(axis)
    out = np.empty_like(v)
    if order == 1:
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
        out[0] = (-1.5 * v[0] + 2.0 * v[1] - 0.5 * v[2]) / dx
        out[-1] = (0.5 * v[-3] - 2.0 * v[-2] + 1.5 * v[-1]) / dx
    else:
        h2 = dx * dx
        out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return f.with_values(out.T if axis == Axis.X2 else out)


def _ref_mobility(u, params):
    g1 = _ref_diff(u, Axis.X1, 1).values
    return np.abs(g1) ** params.q + params.eps


def _ref_quotient(g, params):
    if params.p == 2:
        return g
    return g / np.sqrt(g * g + params.beta**2)


def _ref_face_gradient(v, dx):
    n = v.shape[0]
    g = np.empty((n + 1,) + v.shape[1:])
    g[1:-1] = (v[1:] - v[:-1]) / dx
    g[0] = g[1]
    g[-1] = g[-2]
    return g


def _ref_neumann_d2(v, dx):
    out = np.empty_like(v)
    h2 = dx * dx
    out[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h2
    out[0] = (v[1] - v[0]) / h2
    out[-1] = (v[-2] - v[-1]) / h2
    return out


def _ref_flow_rhs(u, params):
    v = u.values if params.axis == Axis.X1 else u.values.T
    dx = u.spacing(params.axis)
    if params.k == 1:
        flux = _ref_quotient(_ref_face_gradient(v, dx), params)
        outer = (flux[1:] - flux[:-1]) / dx
        sign = 1.0
    else:
        outer = _ref_neumann_d2(_ref_quotient(_ref_neumann_d2(v, dx), params), dx)
        sign = -1.0
    if params.axis == Axis.X2:
        outer = outer.T
    return u.with_values(sign * _ref_mobility(u, params) * outer)


def _ref_stable_dt(u, params):
    dx = u.spacing(params.axis)
    mob = _ref_mobility(u, params)
    if params.p == 2:
        coeff = mob
    else:
        g = _ref_diff(u, params.axis, params.k).values
        b2 = params.beta**2
        coeff = mob * b2 / (g * g + b2) ** 1.5
    cmax = max(float(np.max(coeff)), max(params.eps, DT_FLOOR))
    return float(params.cfl * dx ** (2 * params.k) / (2 ** (2 * params.k) * cmax))


def _ref_evolve(u0, params, t_end, dt_override=None, stop_residual=None,
                max_steps=10_000_000, max_change=0.05):
    state = FlowState(u=u0)
    u0range = float(np.max(u0.values) - np.min(u0.values))
    with np.errstate(over="ignore", invalid="ignore"):
        while state.t < t_end and state.steps < max_steps:
            try:
                rhs = _ref_flow_rhs(state.u, params)
            except GridError as exc:
                raise StabilityError(f"non-finite rhs at step {state.steps}: {exc}") from exc
            res = norm_linf(rhs)
            state.residuals.append(res)
            if stop_residual is not None and res <= stop_residual:
                break
            base_dt = dt_override if dt_override is not None else _ref_stable_dt(state.u, params)
            dt = min(base_dt, t_end - state.t)
            if max_change is not None and res > 0 and u0range > 0:
                limit = max_change * u0range / res
                state.capped += limit < dt
                dt = min(dt, limit)
            new_values = state.u.values + dt * rhs.values
            if not np.all(np.isfinite(new_values)):
                raise StabilityError(f"non-finite field after step {state.steps} (dt={dt:g})")
            state.u = state.u.with_values(new_values)
            state.t += dt
            state.steps += 1
            state.last_dt = dt
    return state


def _assert_same_run(f, params, **kwargs):
    ref = _ref_evolve(f, params, **kwargs)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        new = evolve(f, params, **kwargs)
    assert new.truncated == (ref.steps == kwargs.get("max_steps") and ref.t < kwargs["t_end"])
    assert len(caught) == new.truncated
    assert np.array_equal(new.u.values, ref.u.values)
    assert (new.t, new.steps, new.last_dt, new.capped) == (ref.t, ref.steps, ref.last_dt, ref.capped)
    assert new.residuals == ref.residuals
    return new


def rough_field(seed: int, shape=(14, 11)) -> ScalarField:
    # smooth modes plus noise, unequal spacings: every stencil row matters
    rng = np.random.default_rng(seed)
    v = smooth_field(seed, max(shape)).values[: shape[0], : shape[1]]
    return ScalarField(v + 0.05 * rng.standard_normal(shape), dx1=0.07, dx2=0.09)


class TestStepperReference:
    @pytest.mark.parametrize("axis", list(Axis))
    @pytest.mark.parametrize("k,p,q", ALL_VARIANTS)
    def test_all_variants_bitwise_equal(self, k, p, q, axis):
        f = rough_field(10 * k + 3 * p + q + int(axis))
        params = FlowParams(axis=axis, k=k, p=p, q=q, beta=0.05, eps=1e-3)
        assert np.array_equal(flow_rhs(f, params).values, _ref_flow_rhs(f, params).values)
        dt0 = _ref_stable_dt(f, params)
        assert stable_dt(f, params) == dt0
        # the saturated k=2, p=1 variants shrink their step and stop at max_steps
        assert _assert_same_run(f, params, t_end=100 * dt0, max_steps=400).steps > 20

    @pytest.mark.parametrize(
        "params,kwargs",
        [
            (FlowParams(axis=Axis.X1, k=1, p=2, q=2), dict(t_end=1e-4, dt_override=1e-6)),
            (FlowParams(axis=Axis.X2, k=1, p=1, q=1, beta=0.1), dict(t_end=np.inf, stop_residual=185.0)),  # r0 = 371
            (FlowParams(axis=Axis.X1, k=2, p=2, q=1), dict(t_end=1e-5, max_change=None)),
            (FlowParams(axis=Axis.X2, k=2, p=1, q=2, beta=0.1, cfl=0.8), dict(t_end=1.0, max_steps=150)),
        ],
        ids=["dt_override", "stop_residual", "max_change_none", "truncated"],
    )
    def test_options_bitwise_equal(self, params, kwargs):
        new = _assert_same_run(rough_field(4), params, **kwargs)
        assert new.truncated == ("max_steps" in kwargs)

    # the smallest grid each variant admits (3 samples along X1 for the
    # mobility; 2 along the flow axis, or 2k+1 for the p=1 CFL bound), and 4
    # and 5 samples, where the two rows of a batched boundary stencil read
    # the same, overlapping or adjacent samples
    @pytest.mark.filterwarnings("ignore:evolve stopped at max_steps")
    @pytest.mark.parametrize("axis", list(Axis))
    @pytest.mark.parametrize("k,p,q", ALL_VARIANTS)
    def test_small_grids_bitwise_equal(self, k, p, q, axis):
        need = [3, 1]
        need[axis] = max(need[axis], 2 * k + 1 if p == 1 else 2)
        params = FlowParams(axis=axis, k=k, p=p, q=q, beta=0.05, eps=1e-3)
        too_small = list(need)
        too_small[axis] -= 1
        with pytest.raises(GridError):
            flow_rhs(ScalarField(np.ones(too_small)), params)
        for n1 in sorted({need[0], 4, 5} - set(range(need[0]))):
            for n2 in sorted({need[1], 4, 5} - set(range(need[1]))):
                f = rough_field(n1 + 7 * n2, (n1, n2))
                assert np.array_equal(flow_rhs(f, params).values, _ref_flow_rhs(f, params).values)
                dt0 = _ref_stable_dt(f, params)
                assert stable_dt(f, params) == dt0
                assert _assert_same_run(f, params, t_end=100 * dt0, max_steps=60).steps > 0

    @pytest.mark.parametrize("k", [1, 2])
    def test_grid_stencils_bitwise_equal_near_their_minimum(self, k):
        for n in range(2 * k + 1, 2 * k + 4):
            for shape in ((n, 3), (3, n), (n, n)):
                f = rough_field(n + k, shape)
                for axis in Axis:
                    if shape[axis] >= 2 * k + 1:
                        assert np.array_equal(diff(f, axis, k).values, _ref_diff(f, axis, k).values)
            eye = ScalarField(np.eye(n), 0.07, 0.07)
            assert np.array_equal(diff_matrix(n, 0.07, k), _ref_diff(eye, Axis.X1, k).values)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_first_rhs_raises(self):
        f = ScalarField(1e200 * smooth_field(11).values)
        params = FlowParams(axis=Axis.X1, k=2, p=2, q=2)
        with pytest.raises(StabilityError, match="non-finite rhs at step 0"):
            evolve(f, params, 1e-3)
        with pytest.raises(StabilityError, match="non-finite rhs at step 0"):
            _ref_evolve(f, params, 1e-3)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_first_step_raises(self):
        # a finite rhs whose forced step overflows the field
        f = smooth_field(8)
        params = FlowParams(axis=Axis.X1, k=1, p=2, q=2)
        kwargs = dict(dt_override=1e308, max_change=None)
        msg = r"^non-finite field after step 0 \(dt=1e\+308\)$"
        with pytest.raises(StabilityError, match=msg):
            evolve(f, params, 1e308, **kwargs)
        with pytest.raises(StabilityError, match=msg):
            _ref_evolve(f, params, 1e308, **kwargs)

    # an X1 flow steps each distinct column once and gathers the result back
    @staticmethod
    def _columns(case):
        base = rough_field(31, (9, 4)).values
        if case == "scrambled_repeats":
            v = base[:, [2, 0, 3, 0, 1, 2, 2, 3, 1, 0, 3]]
        elif case == "signed_zeros":
            # a mirror-symmetric local maximum at 0.0 has x1 mobility 0 and
            # rhs -0.0 there, so a -0.0 keeps its sign as long as the column
            # stays exactly symmetric: through every step for k=1, whose
            # interior stencils have two terms and whose boundary rows stay put
            half = -np.linspace(1.0, 2.0, 4)
            peak = np.concatenate([half[::-1], [0.0], half])
            v = np.column_stack([base[:, 0], peak, peak, base[:, 1]])
            v[4, 2] = -0.0
        elif case == "all_equal":
            v = base[:, [1] * 6]
        elif case == "single":
            v = base[:, :1]
        else:
            v = base
        return ScalarField(v, 0.07, 0.09)

    @pytest.mark.filterwarnings("ignore:evolve stopped at max_steps")
    @pytest.mark.parametrize(
        "case", ["scrambled_repeats", "signed_zeros", "all_equal", "single", "no_repeats"]
    )
    @pytest.mark.parametrize("k,p,q", ALL_VARIANTS)
    def test_repeated_columns_bitwise_equal(self, k, p, q, case):
        f = self._columns(case)
        params = FlowParams(axis=Axis.X1, k=k, p=p, q=q, beta=0.05)
        kwargs = dict(t_end=100 * _ref_stable_dt(f, params), max_steps=60)
        new = _assert_same_run(f, params, **kwargs)
        assert new.steps > 0
        ref = _ref_evolve(f, params, **kwargs)
        assert np.array_equal(np.signbit(new.u.values), np.signbit(ref.u.values))
        if case == "signed_zeros" and k == 1:
            assert list(np.signbit(new.u.values[4, 1:3])) == [False, True]
        # no step: the input's bytes come back, column for column
        same = evolve(f, params, 0.0).u.values
        assert np.array_equal(same, f.values)
        assert np.array_equal(np.signbit(same), np.signbit(f.values))

    def test_x2_flow_does_not_merge_repeated_rows(self):
        # rows 1, 4 and 7 start equal but have different neighbours, so the
        # x1 mobility moves them apart
        v = rough_field(32, (9, 6)).values
        v[[4, 7]] = v[1]
        f = ScalarField(v, 0.07, 0.09)
        params = FlowParams(axis=Axis.X2, k=1, p=2, q=2)
        new = _assert_same_run(f, params, t_end=100 * _ref_stable_dt(f, params), max_steps=60)
        out = new.u.values
        assert new.steps > 0
        assert not np.array_equal(out[1], out[4]) and not np.array_equal(out[4], out[7])

    @pytest.mark.filterwarnings("error")
    def test_repeated_columns_overflow_at_the_same_step(self):
        f = ScalarField(rough_field(5, (9, 3)).values[:, [1, 0, 1, 2, 0, 1]], 0.07, 0.09)
        params = FlowParams(axis=Axis.X1, k=2, p=2, q=2)
        dt = 30 * _ref_stable_dt(f, params)
        with pytest.raises(StabilityError, match=r"^non-finite rhs at step 8$"):
            evolve(f, params, 1e9 * dt, dt_override=dt, max_change=None)
        with pytest.raises(StabilityError, match=r"^non-finite rhs at step 8: "):
            _ref_evolve(f, params, 1e9 * dt, dt_override=dt, max_change=None)
