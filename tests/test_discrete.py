import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispflow.discrete import (
    DiscreteError,
    IntShiftField,
    block_assign_columns,
    _candidate_shifts,
    column_cost,
    jitter_correct_rows,
    shift_line,
)
from dispflow.grid import ScalarField
from dispflow.tomo import radon_perturbed, sample_uniform_displacement, shepp_logan


class TestShiftLine:
    def test_zero_shift_is_copy(self):
        v = np.arange(5.0)
        out = shift_line(v, 0)
        assert np.array_equal(out, v)
        assert out is not v

    def test_positive_shift_moves_up_with_edge_fill(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(shift_line(v, 2), [1.0, 1.0, 1.0, 2.0])

    def test_negative_shift(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(shift_line(v, -1), [2.0, 3.0, 4.0, 4.0])

    @given(st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_shift_composition_on_flat_margins(self, s1, s2):
        # with constant margins wider than the total shift, shifts compose
        v = np.concatenate([np.zeros(8), np.linspace(0, 1, 8), np.ones(8)])
        a = shift_line(shift_line(v, s1), s2)
        b = shift_line(v, s1 + s2)
        assert np.allclose(a, b)


class TestIntShiftField:
    def test_bound_enforced(self):
        with pytest.raises(DiscreteError):
            IntShiftField(np.array([0, 7]), bound=5)

    def test_csv_format(self):
        text = IntShiftField(np.array([0, -2, 3]), bound=5).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "index,shift"
        assert lines[1:] == ["0,0", "1,-2", "2,3"]


def shifted_test_image(seed: int, n1: int = 48, n2: int = 24, M: int = 5):
    """Smooth image with flat x1-margins, plus per-row shifts in [0, M]."""
    rng = np.random.default_rng(seed)
    i = np.arange(n1) / n1
    g = i + np.convolve(rng.standard_normal(n1), np.ones(7) / 7, mode="same")
    g[: 2 * M] = g[2 * M]
    g[-2 * M :] = g[-2 * M - 1]
    mod = 1.0 + 0.05 * np.sin(2 * np.pi * np.arange(n2) / n2)
    img = g[:, None] * mod[None, :]
    d = rng.integers(0, M + 1, size=n2)
    jit = np.stack([shift_line(img[:, j], int(d[j])) for j in range(n2)], axis=1)
    return img, jit, d


class TestJitterCorrect:
    def test_identity_on_unshifted_input(self):
        img, _, _ = shifted_test_image(0)
        out, rec = jitter_correct_rows(ScalarField(img, 1, 1), M=3)
        assert np.array_equal(rec.shifts, np.zeros(img.shape[1], dtype=int))
        assert np.array_equal(out.values, img)

    @pytest.mark.parametrize("k", [1, 2])
    def test_recovers_synthetic_shifts(self, k):
        img, jit, d = shifted_test_image(1)
        out, rec = jitter_correct_rows(ScalarField(jit, 1, 1), M=5, k=k)
        # alignment is relative to the first row: recovered + true == d[0]
        assert np.array_equal(rec.shifts + d, np.full(len(d), d[0]))
        ref = np.stack(
            [shift_line(img[:, j], int(d[0])) for j in range(img.shape[1])], axis=1
        )
        assert np.array_equal(out.values, ref)

    def test_invalid_args(self):
        f = ScalarField(np.zeros((10, 4)))
        with pytest.raises(DiscreteError):
            jitter_correct_rows(f, M=-1)
        with pytest.raises(DiscreteError):
            jitter_correct_rows(f, M=2, k=3)
        with pytest.raises(DiscreteError):
            jitter_correct_rows(f, M=10)


def _ref_jitter_correct(img, M, k=1):
    """The per-candidate search: each row tries shift_line for every s in
    _candidate_shifts order, one difference and one dot product at a time."""
    v = img.values
    out = np.empty_like(v)
    shifts = np.zeros(img.n2, dtype=np.int64)
    out[:, 0] = v[:, 0]
    for j in range(1, img.n2):
        best, best_cost = 0, None
        for s in _candidate_shifts(M):
            cand = shift_line(v[:, j], s)
            if k == 1 or j == 1:
                d = cand - out[:, j - 1]
            else:
                d = cand - 2.0 * out[:, j - 1] + out[:, j - 2]
            cost = float(d @ d)
            if best_cost is None or cost < best_cost - 1e-12 * max(best_cost, 1.0):
                best, best_cost = s, cost
        shifts[j] = best
        out[:, j] = shift_line(v[:, j], best)
    return out, shifts


def _sinogram(n, n_angles, seed):
    angles = np.arange(n_angles) * np.pi / n_angles
    pert = sample_uniform_displacement(angles, np.pi / 18, seed)
    return radon_perturbed(shepp_logan(n), angles, None, pert).field.values


class TestJitterCorrectReference:
    """jitter_correct_rows picks the shifts and writes the bytes of the
    per-candidate search."""

    def check(self, v, M, k):
        f = ScalarField(v, 1, 1)
        out, rec = jitter_correct_rows(f, M, k)
        ref, ref_shifts = _ref_jitter_correct(f, M, k)
        assert out.values.tobytes() == ref.tobytes()
        assert np.array_equal(rec.shifts, ref_shifts)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("M", [0, 1, 5, 12])
    def test_same_on_random_and_tied_rows(self, M, k):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            self.check(rng.standard_normal((29, 9)), M, k)
            # small integers: many candidates cost exactly the same, and
            # with 1e-14 noise within the tie margin of each other
            ints = rng.integers(0, 3, size=(29, 9)).astype(float)
            self.check(ints, M, k)
            self.check(ints + 1e-14 * rng.standard_normal(ints.shape), M, k)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("M", [0, 1, 5, 12])
    def test_same_on_jittered_sinograms(self, M, k):
        for seed in (1, 2):
            self.check(_sinogram(48, 32, seed), M, k)
        self.check(_sinogram(128, 90, 3), M, k)

    def test_single_row_is_left_alone(self):
        self.check(np.arange(7.0)[:, None], 3, 2)


class TestBlockAssign:
    def test_identity_when_already_sorted(self):
        v = np.linspace(0, 1, 12)[:, None] * np.ones((1, 6))
        out, rec = block_assign_columns(ScalarField(v, 1, 1), M=4)
        assert np.array_equal(rec.shifts, np.zeros(12, dtype=int))
        assert np.array_equal(out.values, v)

    def test_unscrambles_within_blocks(self):
        rng = np.random.default_rng(2)
        v = np.linspace(0, 1, 12)[:, None] * np.ones((1, 6))
        scr = v.copy()
        for start in range(0, 12, 4):
            perm = rng.permutation(4)
            scr[start : start + 4] = scr[start + perm]
        out, _ = block_assign_columns(ScalarField(scr, 1, 1), M=4)
        assert np.array_equal(out.values, v)

    def test_cost_never_increases(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((16, 8))
        out, _ = block_assign_columns(ScalarField(v, 1, 1), M=8, k=1)
        assert column_cost(out.values, 1) <= column_cost(v, 1) + 1e-12

    def test_shifts_are_a_permutation(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((12, 6))
        _, rec = block_assign_columns(ScalarField(v, 1, 1), M=6)
        perm = rec.shifts + np.arange(12)
        assert sorted(perm.tolist()) == list(range(12))

    def test_invalid_M(self):
        f = ScalarField(np.zeros((8, 4)))
        with pytest.raises(DiscreteError):
            block_assign_columns(f, M=0)
        with pytest.raises(DiscreteError):
            block_assign_columns(f, M=9)

    @pytest.mark.parametrize("k", [0, 3])
    def test_invalid_order(self, k):
        # both ran as k = 2
        f = ScalarField(np.random.default_rng(0).standard_normal((8, 4)))
        with pytest.raises(DiscreteError, match="^k must be 1 or 2$"):
            block_assign_columns(f, 4, k)

    @given(st.integers(0, 20))
    @settings(max_examples=15, deadline=None)
    def test_cost_monotone_random(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((10, 5))
        for k in (1, 2):
            out, _ = block_assign_columns(ScalarField(v, 1, 1), M=5, k=k)
            assert column_cost(out.values, k) <= column_cost(v, k) + 1e-12


def _ref_block_assign(img, M, k=1):
    """The full-recount block reordering: every candidate swap is applied to
    the whole array, column_cost is summed again and the swap undone."""
    v = img.values.copy()
    n = img.n1
    perm = np.arange(n)
    for start in range(0, n, M):
        stop = min(start + M, n)
        improving = True
        while improving:
            improving = False
            best_pair, best_gain = None, 0.0
            base = column_cost(v, k)
            for a, b in itertools.combinations(range(start, stop), 2):
                v[[a, b]] = v[[b, a]]
                gain = base - column_cost(v, k)
                v[[a, b]] = v[[b, a]]
                if gain > best_gain + 1e-12 * max(base, 1.0):
                    best_gain, best_pair = gain, (a, b)
            if best_pair is not None:
                a, b = best_pair
                v[[a, b]] = v[[b, a]]
                perm[[a, b]] = perm[[b, a]]
                improving = True
    return v, perm - np.arange(n)


def _random_rows(seed):
    # 23 rows: blocks of 2, 5, 10 and 20 leave a partial last block
    return np.random.default_rng(seed).standard_normal((23, 7))


def _smooth_rows(seed):
    # 21 rows: blocks of 2, 5, 10 and 20 leave a one-row last block
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, 21)[:, None]
    v = np.sin(3.0 * x + np.linspace(0.0, 2.0, 9)) + 1e-3 * rng.standard_normal((21, 9))
    return v[rng.permutation(21)]


def _repeated_rows(seed):
    # four distinct rows, each repeated: swaps of equal rows gain nothing
    rng = np.random.default_rng(seed)
    return rng.standard_normal((4, 6))[rng.integers(0, 4, size=22)]


class TestBlockAssignReference:
    """block_assign_columns makes the same swaps as the full recount."""

    def check(self, v, M, k):
        f = ScalarField(v, 1, 1)
        out, rec = block_assign_columns(f, M, k)
        ref, ref_shifts = _ref_block_assign(f, M, k)
        assert np.array_equal(out.values, ref)
        assert np.array_equal(rec.shifts, ref_shifts)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("M", [1, 2, 3, 5, 10, 20])
    @pytest.mark.parametrize("rows", [_random_rows, _smooth_rows, _repeated_rows])
    def test_same_as_full_recount(self, rows, M, k):
        for seed in range(20):
            self.check(rows(seed), M, k)

    @pytest.mark.parametrize("k", [1, 2])
    def test_constant_image_is_left_alone(self, k):
        v = np.full((13, 5), 2.5)
        self.check(v, 4, k)
        _, rec = block_assign_columns(ScalarField(v, 1, 1), 4, k)
        assert not rec.shifts.any()

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("M", [3, 10])
    def test_same_on_a_jittered_sinogram(self, M, k):
        angles = np.arange(18) * np.pi / 18
        pert = sample_uniform_displacement(angles, np.pi / 18, 5)
        self.check(radon_perturbed(shepp_logan(32), angles, None, pert).field.values, M, k)
