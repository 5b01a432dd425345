import dataclasses
import io
import itertools
import os
import threading
import time
from fractions import Fraction
from sys import getswitchinterval, setswitchinterval
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from conftest import make_smooth_cube
from oracles import dense_solve

from hsrecon import imaging, metrics, patches, solver, tensors
from hsrecon.errors import DataError, DimensionError, HsreconError, UsageError
from hsrecon.imaging import Measurement, SystemModel
from hsrecon.solver import (
    SolverParams,
    cg_solve_image,
    denoise_group,
    reconstruct,
    shrink_core,
    update_weights,
)
from hsrecon.tensors import TuckerFactors, hosvd, tucker_reconstruct


def _prox_oracle(g_hat: float, w: float, tau: float) -> float:
    """Brute-force scalar minimizer of tau*(g_hat-g)^2 + w*|g|."""
    lo, hi = min(0.0, g_hat) - 0.1, max(0.0, g_hat) + 0.1
    grid = np.arange(lo, hi, 1e-5)
    obj = tau * (g_hat - grid) ** 2 + w * np.abs(grid)
    best = grid[np.argmin(obj)]
    fine = np.arange(best - 2e-5, best + 2e-5, 1e-7)
    obj = tau * (g_hat - fine) ** 2 + w * np.abs(fine)
    return float(fine[np.argmin(obj)])


class TestShrinkCore:
    def test_basic(self):
        assert shrink_core(np.array([[[1.0]]]), np.array([[[0.5]]]), 1.0) == 0.75

    def test_below_threshold(self):
        assert shrink_core(np.array([[[0.1]]]), np.array([[[0.5]]]), 1.0) == 0.0

    def test_negative_sign_preserved(self):
        got = shrink_core(np.array([[[-1.0]]]), np.array([[[0.5]]]), 1.0)
        assert got == -0.75
        assert got == pytest.approx(_prox_oracle(-1.0, 0.5, 1.0), abs=1e-4)

    def test_nonpositive_tau(self):
        with pytest.raises(UsageError):
            shrink_core(np.zeros((1, 1, 1)), np.ones((1, 1, 1)), 0.0)

    @pytest.mark.parametrize("tau", [-1.0, np.nan, np.inf, -np.inf])
    def test_tau_must_be_positive_and_finite(self, tau):
        with pytest.raises(UsageError, match="tau"):
            shrink_core(np.ones((1, 1, 1)), np.ones((1, 1, 1)), tau)

    def test_weights_must_match_the_core(self):
        with pytest.raises(DimensionError):
            shrink_core(np.ones((2, 3)), np.ones((3, 2)), 1.0)

    def test_zero_d(self):
        got = shrink_core(np.array(-1.0), np.array(0.5), 1.0)
        assert isinstance(got, np.ndarray) and got.shape == () and got == -0.75

    def test_infinite_core_entry_with_infinite_weight(self):
        # inf - inf is NaN, returned without a bare RuntimeWarning
        got = shrink_core(np.array([np.inf, -np.inf, 2.0]), np.array([np.inf, np.inf, 1.0]), 1.0)
        assert np.isnan(got[0]) and np.isnan(got[1]) and got[2] == 1.5

    def test_kernel_into_the_weights_equals_shrink_core(self, rng):
        # the chunk step shrinks into the weights' memory with _shrink
        g, w = rng.standard_normal((3, 4, 5)), rng.random((3, 4, 5))
        expect = shrink_core(g, w, 0.7)
        got = solver._shrink(g, w, 0.7, out=w)
        assert got is w and got.tobytes() == expect.tobytes()

    def test_prox_oracle_random(self, rng):
        for _ in range(50):
            g_hat = float(rng.uniform(-2, 2))
            w = float(rng.uniform(0.01, 1.0))
            tau = float(rng.uniform(0.2, 3.0))
            got = shrink_core(np.full((1, 1, 1), g_hat), np.full((1, 1, 1), w), tau)
            assert float(got[0, 0, 0]) == pytest.approx(
                _prox_oracle(g_hat, w, tau), abs=1e-4
            )


class TestUpdateWeights:
    def test_zero_coefficient(self):
        w = update_weights(np.zeros((1, 1, 1)), 0.0055)
        assert w[0, 0, 0] == pytest.approx(5500.0, rel=1e-12)

    def test_zero_d(self):
        w = update_weights(np.array(0.0), 0.0055)
        assert isinstance(w, np.ndarray) and w.shape == () and w == pytest.approx(5500.0)

    def test_matching_coefficient(self):
        w = update_weights(np.full((1, 1, 1), 0.0055), 0.0055)
        assert w[0, 0, 0] == pytest.approx(0.0055 / 0.005501, rel=1e-12)

    @pytest.mark.parametrize("value", [0.0, -1e-3, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["c"])
    def test_reals_must_be_positive_and_finite(self, field, value):
        args = dict(c=0.0055)
        args[field] = value
        with pytest.raises(UsageError, match=field):
            update_weights(np.zeros((1, 1, 1)), **args)

    def test_monotone_decreasing_in_magnitude(self, rng):
        g = rng.standard_normal((4, 5, 3))
        w = update_weights(g, 0.0055)
        order = np.argsort(np.abs(g).ravel())
        assert np.all(np.diff(w.ravel()[order]) <= 0)


# Settings given as narrow NumPy scalars and Fractions.
_NARROW = [("tau", np.float16(2**15)), ("tau", Fraction(1, 4)), ("c", np.float16(0.125)),
           ("c", Fraction(1, 200)), ("s", np.uint8(5)), ("step", np.int8(2)), ("k", np.int8(20)),
           ("window", np.int8(3)), ("max_iter", np.int8(127)), ("rematch_every", np.int8(40))]


class TestSolverParams:
    @pytest.mark.parametrize("field", ["s", "step", "k", "max_iter", "rematch_every"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_counts_must_be_positive(self, field, value):
        with pytest.raises(UsageError, match=field):
            SolverParams(**{field: value})

    def test_window_zero_allowed_negative_rejected(self):
        SolverParams(window=0)
        with pytest.raises(UsageError, match="window"):
            SolverParams(window=-1)

    def test_step_must_not_exceed_patch_size(self):
        # a coarser grid can leave voxels that no patch covers
        SolverParams(s=3, step=3)
        with pytest.raises(UsageError, match="step"):
            SolverParams(s=3, step=4)

    @pytest.mark.parametrize("field", ["tau", "c"])
    @pytest.mark.parametrize("value", [0.0, -1e-3, np.nan, np.inf, -np.inf])
    def test_reals_must_be_positive(self, field, value):
        with pytest.raises(UsageError, match=field):
            SolverParams(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("s", 5.0), ("step", 4.0), ("k", 4.5), ("k", True), ("max_iter", 2.5),
         ("window", 2.5), ("window", np.nan), ("rematch_every", 1.5)],
    )
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(UsageError, match=f"{field} must be an integer"):
            SolverParams(**{field: value})

    @pytest.mark.parametrize("tau", [1e308, np.finfo(float).max])
    def test_tau_whose_double_overflows_is_rejected(self, tau):
        # the data step solves with rho = 2 tau, which must be finite
        SolverParams(tau=np.finfo(float).max / 2)
        with pytest.raises(UsageError, match="tau"):
            SolverParams(tau=tau)

    @pytest.mark.parametrize("field", ["tau", "c"])
    def test_reals_must_be_numbers(self, field):
        with pytest.raises(UsageError, match=field):
            SolverParams(**{field: "1"})

    @pytest.mark.parametrize(
        "field, value", _NARROW, ids=[f"{f}-{type(v).__name__}" for f, v in _NARROW]
    )
    def test_fields_are_stored_as_python_numbers(self, field, value):
        settings = {field: value}
        for p in (SolverParams(**settings), dataclasses.replace(SolverParams(), **settings)):
            types = [type(getattr(p, f.name)) for f in dataclasses.fields(p)]
            assert types == [float, float, int, int, int, int, int, int]
            assert float(getattr(p, field)) == float(value)


class TestDenoiseGroup:
    def test_dominant_rank_one_preserved(self, rng):
        a = np.abs(rng.standard_normal(25)) + 1.0
        b = np.abs(rng.standard_normal(8)) + 1.0
        c = np.abs(rng.standard_normal(20)) + 1.0
        stacked = np.einsum("i,j,k->ijk", a, b, c)
        p = SolverParams(k=20)
        approx, _ = denoise_group(stacked, None, p)
        err = np.linalg.norm(approx - stacked) / np.linalg.norm(stacked)
        assert err < 1e-6

    def test_zero_group(self):
        stacked = np.zeros((9, 4, 5))
        approx, core_mag = denoise_group(stacked, None, SolverParams())
        assert not np.any(approx) and not np.any(core_mag)

    def test_huge_tau_is_identity(self, rng):
        stacked = rng.random((9, 4, 5))
        p = SolverParams(tau=1e12)
        approx, _ = denoise_group(stacked, None, p)
        err = np.linalg.norm(approx - stacked) / np.linalg.norm(stacked)
        assert err < 1e-9

    def test_state_carries_magnitudes(self, rng):
        stacked = rng.random((9, 4, 5))
        p = SolverParams()
        _, core_mag = denoise_group(stacked, None, p)
        assert core_mag.shape == hosvd(stacked).core.shape
        assert np.all(core_mag >= 0)
        # a revisit reweights from the carried magnitudes, not the new core
        _, from_mag = denoise_group(stacked, core_mag, p)
        _, fresh = denoise_group(stacked, None, p)
        assert from_mag.shape == core_mag.shape
        assert not np.array_equal(from_mag, fresh)
        _, huge = denoise_group(stacked, np.full(core_mag.shape, 1e9), p)
        np.testing.assert_allclose(huge, np.abs(hosvd(stacked).core), atol=1e-9)

    @pytest.mark.parametrize("shape", [(30, 1, 1), (10, 4, 5), (9, 4, 6), (9, 4), (2, 9, 4, 5)])
    def test_core_mag_must_fit_the_core(self, rng, shape):
        # the full core of a (9, 4, 5) group is (9, 4, 5): min(d_n, 180 // d_n)
        with pytest.raises(DimensionError):
            denoise_group(rng.random((9, 4, 5)), np.ones(shape), SolverParams())

    def test_ragged_group_raises(self):
        with pytest.raises(UsageError, match="tensor"):
            denoise_group([np.zeros((4, 2, 3)), np.zeros((4, 2))], None, SolverParams())


class TestDenoiseGroups:
    """solver._denoise, the chunk step's kernel, against the per-group oracle."""

    @pytest.mark.parametrize("shape", [(25, 8, 20), (9, 2, 30), (25, 1, 6)])
    def test_matches_single_group_oracle(self, rng, shape):
        # one batched step, first visit and revisit, against denoise_group
        stacked = rng.random((4,) + shape) + 0.1 * rng.standard_normal((4,) + shape)
        p = SolverParams()
        approx, mag = _kernel(stacked, None, p)
        approx2, mag2 = _kernel(stacked, mag, p)
        for i in range(len(stacked)):
            ref, ref_mag = denoise_group(stacked[i], None, p)
            ref2, ref_mag2 = denoise_group(stacked[i], ref_mag, p)
            scale = np.linalg.norm(stacked[i])
            assert np.linalg.norm(approx[i] - ref) <= 1e-8 * scale
            assert np.linalg.norm(approx2[i] - ref2) <= 1e-8 * scale
            # the batched magnitudes are the oracle's leading block, and
            # the oracle is exactly zero outside it
            for got, want in ((mag[i], ref_mag), (mag2[i], ref_mag2)):
                block = tuple(slice(0, n) for n in got.shape)
                assert np.linalg.norm(got - want[block]) <= 1e-8 * scale
                outside = want.copy()
                outside[block] = 0.0
                assert not np.any(outside)

    def test_reads_kept_state_without_writing_it(self, rng):
        # the state returned is new, and its values no view of the core
        stacked = rng.random((3, 9, 4, 5))
        p = SolverParams()
        kept = solver._denoise(stacked.copy(), None, p)
        before = [a.copy() for a in kept[1:]]
        kept2 = solver._denoise(stacked.copy(), kept, p)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(kept[1:], before))
        assert kept2[1] is not kept[1] and kept2[2] is not kept[2] and kept2[2].base is None

    def test_empty_stack(self):
        approx, mag = _kernel(np.zeros((0, 4, 2, 3)), None, SolverParams())
        assert approx.shape == (0, 4, 2, 3) and mag.shape[0] == 0

    def test_non_finite_group_raises(self):
        stacked = np.zeros((2, 4, 2, 3))
        stacked[1, 0, 0, 0] = np.nan
        with pytest.raises(DataError):
            _kernel(stacked, None, SolverParams())

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    @pytest.mark.parametrize("revisit", [False, True])
    def test_infinite_group_raises(self, value, revisit):
        stacked = np.zeros((2, 4, 2, 3))
        stacked[1, 0, 0, 0] = value
        core_mag = np.ones((2, 1, 1, 1)) if revisit else None
        with pytest.raises(DataError):
            _kernel(stacked, core_mag, SolverParams())


def _kernel(stacked, core_mag, p: SolverParams) -> tuple[np.ndarray, np.ndarray]:
    """solver._denoise as the chunk step calls it, in place on a copy of the stack,
    on a dense block of kept magnitudes (None on a first visit); returns the copy,
    which then holds the approximation, and the new kept state as a dense block."""
    buf = np.array(stacked, dtype=np.float64, order="C")
    kept = solver._denoise(buf, _kept(core_mag), p)
    return buf, _block(kept)


def _kept(mag):
    """The kept core state of a dense block of magnitudes: its shape, and the
    flat positions and values of its nonzero entries."""
    if mag is None:
        return None
    pos = np.flatnonzero(mag)
    return mag.shape, pos, mag.take(pos)


def _block(kept) -> np.ndarray:
    """The dense block of a kept core state, zero where no entry is kept."""
    shape, pos, vals = kept
    mag = np.zeros(shape)
    mag.put(pos, vals)
    return mag


def _smooth_groups(seed: int, noise: float = 0.0) -> np.ndarray:
    """Four (25, 8, 20) groups of a smooth cube, whose shrunk cores crop."""
    f = make_smooth_cube(24, 24, 8, seed=5)
    grid = patches.plan_grid(24, 24, 5, 4)
    anchors = list(itertools.product(grid.rows, grid.cols))[4 * seed : 4 * seed + 4]
    members = [patches.match_blocks(f, a, 5, 20, 6) for a in anchors]
    f = f + noise * np.random.default_rng(seed).standard_normal(f.shape)
    return np.stack([patches.build_group(f, m, 5) for m in members])


def _padded(mag: np.ndarray, shape) -> np.ndarray:
    out = np.zeros(shape)
    out[tuple(slice(0, n) for n in mag.shape)] = mag
    return out


class TestLiveBlock:
    """Revisits compute, shrink and keep only the live block of each core."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cropped_revisit_equals_zero_padded_full_revisit(self, seed):
        p = SolverParams(k=20)
        _, mag = _kernel(_smooth_groups(seed), None, p)
        assert mag[0].size < 25 * 8 * 20  # cropping is active
        stacked = _smooth_groups(seed, noise=0.01)
        approx, mag2 = _kernel(stacked, mag, p)
        full, full_mag2 = _kernel(stacked, _padded(mag, (4, 25, 8, 20)), p)
        scale = np.linalg.norm(stacked)
        assert np.linalg.norm(approx - full) <= 1e-12 * scale
        assert mag2.shape == full_mag2.shape
        assert np.linalg.norm(mag2 - full_mag2) <= 1e-12 * scale

    @pytest.mark.parametrize("tau", [1.0, 0.1])
    def test_guard_restores_a_zeroed_core_that_grows(self, rng, tau):
        # visit 1 shrinks every coefficient to zero; at the revisit the
        # group is 1e6 times larger, beyond the zero magnitude's threshold
        p = SolverParams(tau=tau)
        small = 1e-3 * rng.random((2, 25, 8, 20))
        _, mag = _kernel(small, None, p)
        assert mag.shape == (2, 0, 0, 0)
        big = 1e6 * small
        approx, mag2 = _kernel(big, mag, p)
        assert np.any(mag2)
        full, full_mag2 = _kernel(big, np.zeros((2, 25, 8, 20)), p)
        # the bound's block, grown from the empty kept one, against the full
        # block: equal up to rounding, and it holds every nonzero entry
        scale = np.linalg.norm(big)
        assert np.linalg.norm(approx - full) <= 1e-12 * scale
        box = tuple(slice(0, n) for n in mag2.shape)
        assert np.linalg.norm(mag2 - full_mag2[box]) <= 1e-12 * scale
        outside = full_mag2.copy()
        outside[box] = 0.0
        assert not np.any(outside)
        for i in range(2):  # the per-group oracle, as in TestDenoiseGroups
            ref, ref_mag = denoise_group(big[i], np.zeros((25, 8, 20)), p)
            scale = np.linalg.norm(big[i])
            assert np.linalg.norm(approx[i] - ref) <= 1e-8 * scale
            block = tuple(slice(0, n) for n in mag2.shape[1:])
            assert np.linalg.norm(mag2[i] - ref_mag[block]) <= 1e-8 * scale

    def test_fallback_zero_pads_the_block(self):
        # in groups 1e4 times larger, slices outside the kept block could
        # pass a zero's threshold: the revisit's block, (11, 8, 11) here,
        # outgrows the kept (11, 2, 11), weighted by the zero-padded magnitudes
        p = SolverParams(k=20)
        _, mag = _kernel(1e4 * _smooth_groups(0), None, p)
        assert mag[0].size < 25 * 8 * 20
        stacked = 1e4 * _smooth_groups(0, noise=0.01)
        approx, mag2 = _kernel(stacked, mag, p)
        for i in range(len(stacked)):
            ref, ref_mag = denoise_group(stacked[i], _padded(mag[i], (25, 8, 20)), p)
            scale = np.linalg.norm(stacked[i])
            assert np.linalg.norm(approx[i] - ref) <= 1e-8 * scale
            block = tuple(slice(0, n) for n in mag2.shape[1:])
            assert np.linalg.norm(mag2[i] - ref_mag[block]) <= 1e-8 * scale

    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kept_magnitudes_are_the_nonzero_bounding_box(self, rng, seed, mixed):
        # mixed: a random group, whose core stays full, among smooth ones
        p = SolverParams(k=20)
        stacked = _smooth_groups(seed)
        if mixed:
            stacked[1] = rng.random((25, 8, 20))
        _, mag = _kernel(stacked, None, p)
        _, mag2 = _kernel(stacked + 0.01 * rng.standard_normal(stacked.shape), mag, p)
        for m in (mag, mag2):
            for axis in (1, 2, 3):
                last = np.take(m, m.shape[axis] - 1, axis=axis)
                assert np.any(last)
        block = tuple(slice(0, n) for n in mag.shape[1:])
        for i in range(len(stacked)):  # the box holds every nonzero entry
            outside = denoise_group(stacked[i], None, p)[1]
            outside[block] = 0.0
            assert not np.any(outside)

    def test_all_zero_chunk_keeps_an_empty_block(self):
        p = SolverParams()
        approx, mag = _kernel(np.zeros((3, 25, 8, 20)), None, p)
        assert mag.shape == (3, 0, 0, 0) and not np.any(approx)
        approx, mag2 = _kernel(np.zeros((3, 25, 8, 20)), mag, p)
        assert mag2.shape == (3, 0, 0, 0)
        assert approx.shape == (3, 25, 8, 20) and not np.any(approx)


    @settings(max_examples=60, deadline=None)
    @given(
        smooth=st.booleans(),
        shape=st.sampled_from([(9, 2, 30), (25, 8, 20), (4, 3, 5), (25, 1, 6), (1, 7, 3)]),
        scale=st.sampled_from([1e-3, 1e-1, 1.0, 1e2, 1e4]),
        tau=st.sampled_from([1e-3, 0.1, 1.0, 1e3]),
        growth=st.sampled_from([1.0, 1e4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bound_block_holds_every_entry_the_oracle_keeps(
        self, smooth, shape, scale, tau, growth, seed
    ):
        # the block _denoise computes, a first visit's and a revisit's, holds
        # every nonzero entry of denoise_group's full shrunk core; growth
        # scales the revisit's groups, so that its block can outgrow the kept one
        rng = np.random.default_rng(seed)
        p = SolverParams(tau=tau)
        if smooth:  # three smooth rank-one terms and a little noise: the blocks cut
            axes = [np.linspace(0.0, 1.0, d) for d in shape]
            stacked = 1e-3 * rng.standard_normal((3, *shape))
            for j in range(3):
                waves = (np.cos(np.pi * (j + 1) * rng.random((3, 1)) * a) for a in axes)
                stacked += 0.3**j * np.einsum("gi,gj,gk->gijk", *waves)
        else:
            stacked = rng.random((3, *shape))
        stacked = scale * stacked
        later = growth * stacked * (1.0 + 0.1 * rng.standard_normal(stacked.shape))
        real, blocks = tensors._hosvd, []

        def spy(t, widths):
            core, factors = real(t, widths)
            blocks.append(core.shape[1:])
            return core, factors

        with mock.patch.object(tensors, "_hosvd", spy):
            approx, mag = _kernel(stacked, None, p)
            approx2, _ = _kernel(later, mag, p)
        for i in range(len(stacked)):
            # the revisit's oracle reads the kernel's kept magnitudes, as the
            # weights c / (m + EPS) magnify a rounding difference in small m
            ref, ref_mag = denoise_group(stacked[i], None, p)
            ref2, ref_mag2 = denoise_group(later[i], _padded(mag[i], ref_mag.shape), p)
            for got, want, group, want_mag, block in (
                (approx, ref, stacked[i], ref_mag, blocks[0]),
                (approx2, ref2, later[i], ref_mag2, blocks[1]),
            ):
                assert np.linalg.norm(got[i] - want) <= 1e-8 * np.linalg.norm(group)
                outside = want_mag.copy()
                outside[tuple(slice(0, n) for n in block)] = 0.0
                assert not np.any(outside)


def _flip_signs(tf: TuckerFactors, signs) -> TuckerFactors:
    """``tf`` with factor column j of U_n of group i times ``signs[n][i, j]``.

    The matching core slices get the same sign, so every group's tensor
    stays the same.
    """
    core = tf.core
    for axis, s in enumerate(signs, start=1):
        core = core * np.expand_dims(s, tuple(a for a in range(1, 4) if a != axis))
    factors = tuple(u * s[:, None, :] for u, s in zip(tf.factors, signs))
    return TuckerFactors(core=core, factors=factors)


class TestFactorSigns:
    """The group step does not depend on the signs of the HOSVD factor columns."""

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.tuples(
            st.integers(1, 3), st.integers(1, 9), st.integers(1, 4), st.integers(1, 8)
        ),
        scale=st.sampled_from([1.0, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_denoise_groups_invariant_to_factor_signs(self, dims, scale, seed):
        # scale 1e-3 shrinks most or all of each core to zero
        rng = np.random.default_rng(seed)
        stacked = scale * rng.standard_normal(dims)
        p = SolverParams()
        approx, mag = _kernel(stacked, None, p)
        approx2, mag2 = _kernel(stacked, mag, p)

        real = tensors._hosvd  # the HOSVD kernel _denoise runs on

        def flipped(t, widths):
            tf = TuckerFactors(*real(t, widths))
            signs = [rng.choice([-1.0, 1.0], size=(len(u), u.shape[2])) for u in tf.factors]
            tf = _flip_signs(tf, signs)
            return tf.core, tf.factors

        with mock.patch.object(tensors, "_hosvd", flipped):
            f_approx, f_mag = _kernel(stacked, None, p)
            f_approx2, f_mag2 = _kernel(stacked, f_mag, p)
        assert f_approx.tobytes() == approx.tobytes()
        assert f_mag.tobytes() == mag.tobytes()
        assert f_approx2.tobytes() == approx2.tobytes()
        assert f_mag2.tobytes() == mag2.tobytes()

    @pytest.mark.parametrize("rematch_every", [1, 3])
    @pytest.mark.parametrize("mode", [imaging.CASSI, imaging.DCCHI])
    def test_reconstruct_unchanged_by_flipping_odd_columns(self, monkeypatch, mode, rematch_every):
        # every odd factor column of the batched HOSVD negated, core slices
        # flipped to match
        f_true = make_smooth_cube(20, 20, 3, seed=4)
        sys = SystemModel(imaging.generate_mask(20, 20, 0.5, 6), 3, mode=mode)
        y = imaging.forward(f_true, sys)
        p = SolverParams(k=6, window=4, max_iter=4, rematch_every=rematch_every)
        plain = reconstruct(y, sys, p)

        real = tensors._hosvd  # the HOSVD kernel of the chunk step

        def flipped(t, widths):
            tf = TuckerFactors(*real(t, widths))
            signs = [np.tile((-1.0) ** np.arange(u.shape[2]), (len(u), 1)) for u in tf.factors]
            tf = _flip_signs(tf, signs)
            return tf.core, tf.factors

        monkeypatch.setattr(tensors, "_hosvd", flipped)
        assert reconstruct(y, sys, p).tobytes() == plain.tobytes()


class TestCgSolveImage:
    def test_diagonal_system(self, rng):
        # zero mask: Phi^T Phi = 0, solution = rhs / (2 tau)
        sys = SystemModel(np.zeros((5, 5)), 3)
        rhs = rng.random((5, 5, 3))
        x = cg_solve_image(rhs, np.ones((5, 5, 3)), sys, tau=1.0)
        np.testing.assert_allclose(x, rhs / 2.0, rtol=1e-10)

    def test_matches_dense_oracle(self, rng):
        sys = SystemModel(imaging.generate_mask(6, 6, 0.5, 11), 3)
        tau = 1.0
        rhs = rng.random((6, 6, 3))
        expect = dense_solve(sys, 2.0 * tau, rhs)
        got = cg_solve_image(rhs, np.ones((6, 6, 3)), sys, tau)
        err = np.linalg.norm(got - expect) / np.linalg.norm(expect)
        assert err <= 1e-6

    def test_huge_tau_limit(self, rng):
        mask = imaging.generate_mask(6, 6, 0.5, 1)
        sys = SystemModel(mask, 3)
        target = rng.random((6, 6, 3))
        tau = 1e9
        rhs = 2.0 * tau * target
        got = cg_solve_image(rhs, np.ones((6, 6, 3)), sys, tau)
        err = np.linalg.norm(got - target) / np.linalg.norm(target)
        assert err <= 1e-6

    def test_zero_rhs(self):
        sys = SystemModel(np.ones((4, 4)), 2)
        assert not np.any(cg_solve_image(np.zeros((4, 4, 2)), np.ones((4, 4, 2)), sys, 1.0))


class TestReconstruct:
    def test_invertible_single_band(self):
        x = np.linspace(0, 1, 64)
        base = np.outer(np.sin(2 * np.pi * x) * 0.5 + 0.5, np.cos(2 * np.pi * x) * 0.5 + 0.5)
        f = (0.5 + 0.1 * (base - 0.5))[:, :, None]
        sys = SystemModel(np.ones((64, 64)), 1)
        y = imaging.forward(f, sys)
        rec = reconstruct(y, sys, SolverParams(k=20, window=10, max_iter=10))
        mse = np.mean((rec - f) ** 2)
        assert 10.0 * np.log10(1.0 / mse) >= 60.0

    def test_zero_measurement(self):
        sys = SystemModel(np.ones((16, 16)), 2)
        y = Measurement(np.zeros((17, 16)))
        rec = reconstruct(y, sys, SolverParams(s=4, step=3, k=4, window=3, max_iter=3))
        assert not np.any(rec)

    def test_progress_emitted(self, rng):
        f = rng.random((16, 16, 2))
        sys = SystemModel(imaging.generate_mask(16, 16, 0.5, 0), 2)
        y = imaging.forward(f, sys)
        rows = []
        reconstruct(
            y, sys, SolverParams(s=4, step=3, k=4, window=3, max_iter=3),
            progress=lambda it, res, sec: rows.append((it, res, sec)),
        )
        assert [r[0] for r in rows] == [1, 2, 3]
        assert all(r[1] >= 0 and r[2] >= 0 for r in rows)

    @pytest.mark.parametrize("pan", [np.ones((8, 8)), np.ones((3, 3)), np.full((8, 8), np.nan)])
    def test_cassi_system_rejects_a_pan_plane(self, pan):
        # rejected before the pan's values are scanned
        sys = SystemModel(imaging.generate_mask(8, 8, 0.5, 0), 4)
        y = Measurement(imaging.forward(make_smooth_cube(8, 8, 4, seed=1), sys).cassi, pan)
        with pytest.raises(DimensionError, match="pan plane"):
            reconstruct(y, sys, SolverParams(s=4, step=3, k=4, window=3, max_iter=2))

    @pytest.mark.parametrize("plane, value", [("measurement", np.nan), ("measurement", np.inf),
                                              ("pan plane", np.nan), ("pan plane", -np.inf)])
    def test_non_finite_measurement_is_named(self, plane, value):
        sys = SystemModel(imaging.generate_mask(12, 12, 0.5, 0), 4, imaging.DCCHI)
        y = imaging.forward(make_smooth_cube(12, 12, 4, seed=1), sys)
        planes = {"measurement": y.cassi.copy(), "pan plane": y.pan.copy()}
        planes[plane][3, 5] = value
        y = Measurement(planes["measurement"], planes["pan plane"])
        with pytest.raises(DataError, match=f"^{plane} contains non-finite values"):
            reconstruct(y, sys, SolverParams(s=4, step=3, k=4, window=3, max_iter=2))


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mode", [imaging.CASSI, imaging.DCCHI])
    @pytest.mark.parametrize("tau", [1e-318, 5e-324])
    def test_tiny_tau_returns_a_cube_or_raises_a_library_error(self, mode, tau):
        # 2 tau EPS is 0.0. The data step's rho = 2 tau is far below the
        # rounding of Phi^T Phi, so the iterates may leave the float range,
        # with NumPy's overflow warnings on the way.
        sys = SystemModel(imaging.generate_mask(20, 20, 0.5, 6), 3, mode=mode)
        y = imaging.forward(make_smooth_cube(20, 20, 3, seed=4), sys)
        try:
            rec = reconstruct(y, sys, SolverParams(tau=tau, k=6, window=4, max_iter=4))
        except HsreconError:
            return
        assert np.all(np.isfinite(rec)) and rec.min() >= 0.0 and rec.max() <= 1.0

    @pytest.mark.filterwarnings("error")
    def test_tiny_tau_on_the_dual_camera_desk_scene_is_a_usage_error(self):
        # rho = 2 tau is below the rounding of the pan-eliminated system on
        # this mask: the data step's factor names rho before any iteration
        sys = SystemModel(imaging.generate_mask(64, 64, 0.5, 42), 8, mode=imaging.DCCHI)
        y = imaging.forward(make_smooth_cube(64, 64, 8, seed=5), sys)
        with pytest.raises(UsageError, match="rho"):
            reconstruct(y, sys, SolverParams(tau=1e-16, s=5, step=4, k=20, window=10, max_iter=2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    @pytest.mark.parametrize("mode", [imaging.CASSI, imaging.DCCHI])
    def test_tiny_tau_reads_the_same_finite_cube_at_every_scale(self, mode, sigma):
        # Below the rounding of Phi^T Phi the data step is Phi's minimum-norm
        # fit to y - Phi z, whatever tau is; a step that divides by rho = 2 tau
        # returns rounding noise over rho instead, or overflows. With noise,
        # the residuals of the 75 detector pixels no band reaches would
        # overflow once divided by this rho.
        f = make_smooth_cube(20, 20, 3, seed=4)
        sys = SystemModel(imaging.generate_mask(20, 20, 0.5, 6), 3, mode=mode)
        y = imaging.forward(f, sys)
        rng = np.random.default_rng(7)
        cassi = y.cassi + sigma * rng.standard_normal(y.cassi.shape)
        pan = None if y.pan is None else y.pan + sigma * rng.standard_normal(y.pan.shape)
        values = []
        for tau in (1e-20, 1e-100, 1e-318):
            p = SolverParams(tau=tau, s=3, step=2, k=6, window=4, max_iter=30)
            rec = reconstruct(Measurement(cassi, pan), sys, p)
            assert np.all(np.isfinite(rec))
            values.append(metrics.psnr(f, rec))
        assert max(values) - min(values) <= 1e-9, values


class TestMomentum:
    # small integers: every difference, product and sum below is exact, so
    # the sign of the inner product does not depend on how it is summed
    _cubes = st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            *[hnp.arrays(np.float64, (n, 2, 2), elements=st.integers(-9, 9).map(float))] * 3
        )
    )

    @settings(deadline=None, max_examples=200)
    @given(cubes=_cubes, t=st.floats(1.0, 100.0))
    def test_restarts_exactly_when_the_step_opposes_the_momentum(self, cubes, t):
        x, f_new, f_prev = cubes
        before = [a.tobytes() for a in cubes]
        x_next, t_next = solver._momentum(x, f_new, f_prev, t)
        assert [a.tobytes() for a in cubes] == before  # inputs are only read
        inner = sum(int(a) * int(b) for a, b in zip((x - f_new).ravel(), (f_new - f_prev).ravel()))
        if inner > 0:
            assert t_next == 1.0 and x_next.tobytes() == f_new.tobytes()
        else:
            assert t_next == (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            expect = f_new + ((t - 1.0) / t_next) * (f_new - f_prev)
            assert x_next.tobytes() == expect.tobytes()


@st.composite
def _sweep_params(draw, side: int) -> SolverParams:
    """Settings of the random-geometry sweep on a plane of least side ``side``."""
    s = draw(st.integers(1, side))
    return SolverParams(
        tau=draw(st.sampled_from([0.1, 1.0, 3.0])),
        c=draw(st.sampled_from([5.5e-4, 5.5e-3, 5e-2])),
        s=s,
        step=draw(st.integers(1, s)),
        k=draw(st.integers(1, 11)),
        window=draw(st.integers(0, 4)),
        max_iter=draw(st.integers(1, 4)),
        rematch_every=draw(st.integers(1, 3)),
    )


def _selection_ties(x: np.ndarray, p: SolverParams) -> bool:
    """Whether some anchor's kept members of ``x`` hang on a distance tie.

    ``match_blocks`` takes an anchor's candidates in ascending distance,
    cyclically, k in all, so with n candidates the first ``k % n`` of that
    order are the ones that come once more. Where the last of them and the
    next are equal up to rounding (or up to the data step's rounding in x),
    matching's box sums and ``match_blocks``' sums may order them apart.
    """
    rows, cols, _ = x.shape
    view = sliding_window_view(x, (p.s, p.s), axis=(0, 1))
    grid = patches.plan_grid(rows, cols, p.s, p.step)
    for ar, ac in itertools.product(grid.rows, grid.cols):
        r0, c0 = max(0, ar - p.window), max(0, ac - p.window)
        diff = view[r0 : ar + p.window + 1, c0 : ac + p.window + 1] - view[ar, ac]
        dist = np.einsum("rclij,rclij->rc", diff, diff)
        dist[ar - r0, ac - c0] = -1.0  # the anchor itself comes first
        d, r = np.sort(dist, axis=None), p.k % dist.size
        if r and d[r] - d[r - 1] <= 1e-9 * max(d[r], 1.0):
            return True
    return False


class TestBatchedPipeline:
    def test_matches_per_group_loop(self, monkeypatch):
        self._check_against_loop(monkeypatch, rematch_every=3)

    def test_matches_per_group_loop_rematching_every_iteration(self, monkeypatch):
        # no iteration reads the shrunk-core magnitudes of the one before
        self._check_against_loop(monkeypatch, rematch_every=1)

    def test_repeated_singular_value_leaves_the_per_group_loop(self, monkeypatch):
        # A group here repeats a singular value of its mode-1 and mode-3
        # unfoldings. The loop's hosvd (an SVD) and the pipeline's _hosvd (a
        # Gram eigensolve) pick different bases of the repeated subspace, the
        # kept weights then fall on other coefficients, and reconstruct leaves
        # the loop: max |delta| read 0.0307. This pins today's behaviour, not a
        # bound: keying each kept weight to its singular vector (ROADMAP item
        # 10) changes what it holds. The output is still a cube in [0, 1],
        # bitwise the same for any worker count.
        f_true = make_smooth_cube(14, 12, 2, seed=55)
        sys = SystemModel(imaging.generate_mask(14, 12, 0.5, 59), 2)
        y = imaging.forward(f_true, sys)
        p = SolverParams(tau=0.1, s=2, step=1, k=3, window=1, max_iter=2, rematch_every=3)
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(solver, "WORKERS", workers)
            outputs.append(reconstruct(y, sys, p))
        got = outputs[0]
        assert np.abs(got - self._per_group_loop(y, sys, p)).max() > 1e-9
        assert np.all(np.isfinite(got)) and got.min() >= 0.0 and got.max() <= 1.0
        assert outputs[1].tobytes() == got.tobytes() and outputs[2].tobytes() == got.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        case=st.tuples(st.integers(6, 18), st.integers(6, 18)).flatmap(
            lambda plane: st.tuples(st.just(plane), _sweep_params(min(plane)))
        ),
        bands=st.integers(1, 4),
        mode=st.sampled_from([imaging.CASSI, imaging.DCCHI]),
        workers=st.integers(1, 3),
        chunk_groups=st.sampled_from([1, 3, 1000]),
        seed=st.integers(0, 2**16),
    )
    def test_random_geometries_match_per_group_loop(
        self, case, bands, mode, workers, chunk_groups, seed
    ):
        # reconstruct against the per-group loop on random planes, settings,
        # worker counts and chunk sizes (CHUNK_BYTES of 1, 3 or 1000 groups).
        # Two kinds of example may part from the loop, and are counted, not
        # discarded: where a Gram matrix that _hosvd sees repeats an
        # eigenvalue, to a relative gap below 1e-10, the loop's SVD and the
        # pipeline's eigensolve may pick different bases of the repeated
        # subspace (as in the repeated-value test above); where a rematch's
        # members hang on a distance tie (_selection_ties), matching and
        # match_blocks may keep different members. Such an example must still
        # give a finite cube in [0, 1], bitwise the same for every worker count.
        (rows, cols), p = case
        f_true = make_smooth_cube(rows, cols, bands, seed=seed)
        sys = SystemModel(imaging.generate_mask(rows, cols, 0.5, seed + 1), bands, mode=mode)
        y = imaging.forward(f_true, sys)
        real_hosvd, real_match, repeats, ties = tensors._hosvd, patches._match, [], []

        def hosvd_spy(t, widths):
            def seen(lams):  # each Gram's eigenvalues, descending
                for lam in lams:
                    hi, lo = lam[:, :-1], lam[:, 1:]
                    repeats.append(bool(np.any((hi > 0.0) & (hi - lo <= 1e-10 * hi))))
                return widths(lams)

            return real_hosvd(t, seen)

        def match_spy(x, plan):
            ties.append(_selection_ties(x, p))
            return real_match(x, plan)

        def run(workers):
            chunk_bytes = chunk_groups * 8 * p.s * p.s * bands * p.k
            with (
                mock.patch.multiple(solver, WORKERS=workers, CHUNK_BYTES=chunk_bytes),
                mock.patch.object(tensors, "_hosvd", hosvd_spy),
                mock.patch.object(patches, "_match", match_spy),
            ):
                return reconstruct(y, sys, p)

        got = run(workers)
        if not any(repeats) and not any(ties):
            np.testing.assert_allclose(got, self._per_group_loop(y, sys, p), rtol=0, atol=1e-9)
            return
        if any(repeats):
            event("a Gram matrix repeats an eigenvalue")
        if any(ties):
            event("a rematch's members hang on a distance tie")
        assert np.all(np.isfinite(got)) and got.min() >= 0.0 and got.max() <= 1.0
        for other in {1, 2, 3} - {workers}:
            assert run(other).tobytes() == got.tobytes()

    @classmethod
    def _check_against_loop(cls, monkeypatch, rematch_every):
        # reconstruct's chunked pipeline against the per-group loop it
        # replaced; small chunks force several chunks per iteration
        f_true = make_smooth_cube(20, 20, 3, seed=4)
        sys = SystemModel(imaging.generate_mask(20, 20, 0.5, 6), 3)
        y = imaging.forward(f_true, sys)
        p = SolverParams(k=6, window=4, max_iter=4, rematch_every=rematch_every)
        monkeypatch.setattr(solver, "CHUNK_BYTES", 3 * 8 * 25 * 3 * 6)
        got = reconstruct(y, sys, p)
        np.testing.assert_allclose(got, cls._per_group_loop(y, sys, p), rtol=0, atol=1e-9)

    @staticmethod
    def _per_group_loop(y, sys, p):
        # reconstruct as a loop over groups, built from the reference functions
        backproj = imaging.adjoint(y, sys)
        ones = np.ones(backproj.shape)
        f = cg_solve_image(backproj, ones, sys, solver.INIT_RIDGE / 2)
        grid = patches.plan_grid(*backproj.shape[:2], p.s, p.step)
        x, t = f, 1.0  # the group step reads x, FISTA's extrapolated point
        for it in range(p.max_iter):
            if it % p.rematch_every == 0:
                anchors = itertools.product(grid.rows, grid.cols)
                members = [patches.match_blocks(x, a, p.s, p.k, p.window) for a in anchors]
                mags = [None] * len(members)
            approxed = []
            for n, mem in enumerate(members):
                approx, mags[n] = denoise_group(patches.build_group(x, mem, p.s), mags[n], p)
                approxed.append((mem, approx))
            total, counts = patches.aggregate(approxed, backproj.shape)
            rhs = backproj + 2.0 * p.tau * (total / counts)
            f_prev, f = f, cg_solve_image(rhs, ones, sys, p.tau)
            if np.vdot(x - f, f - f_prev) > 0:  # the step went against the momentum
                x, t = f, 1.0
            else:
                t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
                x, t = f + (t - 1.0) / t_next * (f - f_prev), t_next
        return np.clip(f, 0.0, 1.0)


class TestKeptCoreState:
    @staticmethod
    def _visits(monkeypatch, workers, rematch_every, c=SolverParams.c):
        # Per chunk, per iteration, the state _denoise was handed and the one
        # it returned, of a 20x20x3 reconstruct in 9 chunks. Each returned
        # state is the shape of the bounding box of the nonzero entries of the
        # shrunk block that the rebuild read, (g, 0, 0, 0) if none is, and the
        # flat positions in that box and magnitudes of those entries, in C
        # order.
        f_true = make_smooth_cube(20, 20, 3, seed=4)
        sys = SystemModel(imaging.generate_mask(20, 20, 0.5, 6), 3)
        y = imaging.forward(f_true, sys)
        p = SolverParams(c=c, k=6, window=4, max_iter=7, rematch_every=rematch_every)
        monkeypatch.setattr(solver, "CHUNK_BYTES", 3 * 8 * 25 * 3 * 6)  # 9 chunks
        monkeypatch.setattr(solver, "WORKERS", workers)
        in_order, denoise = solver._in_order, solver._denoise
        rebuild = tensors._mode_products_batch
        current = threading.local()
        lock = threading.Lock()
        visits = {}  # chunk -> (state received, state returned) per iteration

        def in_order_spy(n, work, add):
            def named(i):  # the pool's index i of a group step names chunk i
                current.chunk = i
                return work(i)

            return in_order(n, named, add)

        def rebuild_spy(t, mats, out=None):
            if out is not None:  # the rebuild; _hosvd's core products pass no out
                current.shrunk = t.copy()  # out, the stack, holds t's memory
            return rebuild(t, mats, out)

        def copied(kept):
            return kept[0], kept[1].copy(), kept[2].copy()

        def denoise_spy(stacked, kept, p):
            received = None if kept is None else copied(kept)
            state = denoise(stacked, kept, p)
            g, (shape, pos, vals) = current.shrunk, state
            at = np.nonzero(g)
            box = [len(g)] + [int(a.max()) + 1 if a.size else 0 for a in at[1:]]
            assert shape == tuple(box)
            assert pos.dtype == np.intp and vals.dtype == np.float64
            assert np.array_equal(pos, np.ravel_multi_index(at, shape))
            assert np.array_equal(np.unravel_index(pos, shape), at)
            assert vals.tobytes() == np.abs(g[at]).tobytes()
            with lock:
                visits.setdefault(current.chunk, []).append((received, copied(state)))
            return state

        monkeypatch.setattr(solver, "_in_order", in_order_spy)
        monkeypatch.setattr(tensors, "_mode_products_batch", rebuild_spy)
        monkeypatch.setattr(solver, "_denoise", denoise_spy)
        reconstruct(y, sys, p)
        assert sorted(visits) == list(range(9))
        for seq in visits.values():
            assert len(seq) == p.max_iter
        return visits

    @pytest.mark.parametrize("rematch_every", [1, 3])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_revisit_receives_the_previous_block_bitwise(
        self, monkeypatch, workers, rematch_every
    ):
        # Between visits reconstruct keeps, per chunk, the shape of the
        # shrunk-core block and the flat positions and values of its nonzero
        # entries; the state a revisit is handed must be bitwise the one the
        # chunk's previous visit returned. A rematch resets the kept state:
        # with rematch_every 1 every visit is a first.
        visits = self._visits(monkeypatch, workers, rematch_every)
        assert len(visits) == 9
        zeros = 0
        for seq in visits.values():
            for it, (received, _) in enumerate(seq):
                if it % rematch_every == 0:  # first visit after a match
                    assert received is None
                    continue
                (shape, pos, vals), returned = received, seq[it - 1][1]
                assert shape == returned[0]
                assert pos.dtype == returned[1].dtype == np.intp
                assert vals.dtype == returned[2].dtype == np.float64
                assert pos.tobytes() == returned[1].tobytes()
                assert vals.tobytes() == returned[2].tobytes()
                assert np.all(vals > 0)  # magnitudes of the nonzero entries only
                zeros += np.prod(shape) - len(pos)
        # the blocks hold zeros that the kept state leaves out, if any is revisited
        assert (zeros > 0) == (rematch_every > 1)

    def test_core_shrunk_to_zero_keeps_an_empty_block(self, monkeypatch):
        # c far above any group's squared norm: every coefficient shrinks to
        # zero, the box is (g, 0, 0, 0), and the next visit's widths are 0
        visits = self._visits(monkeypatch, 2, 3, c=1e6)
        for chunk, seq in visits.items():
            for it, (received, (shape, pos, vals)) in enumerate(seq):
                assert shape == (1 if chunk == 8 else 3, 0, 0, 0)  # 25 groups, 3 a chunk
                assert pos.size == vals.size == 0
                if it % 3:
                    assert received[0][1:] == (0, 0, 0)  # the widths _denoise reads


class TestWorkerPool:
    @staticmethod
    def _problem():
        f_true = make_smooth_cube(20, 20, 3, seed=4)
        sys = SystemModel(imaging.generate_mask(20, 20, 0.5, 6), 3)
        return imaging.forward(f_true, sys), sys, SolverParams(
            k=6, window=4, max_iter=4, rematch_every=3
        )

    def test_output_independent_of_worker_count(self, monkeypatch):
        # at rematch_every 1 every iteration matches; at rematch_every 4 of
        # 4 iterations the run matches once
        y, sys, p = self._problem()
        monkeypatch.setattr(solver, "CHUNK_BYTES", 3 * 8 * 25 * 3 * 6)  # 9 chunks
        for rematch_every in (4, 3, 1):
            p = dataclasses.replace(p, rematch_every=rematch_every)
            outputs = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(solver, "WORKERS", workers)
                outputs.append(reconstruct(y, sys, p).tobytes())
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize(
        "error", [MemoryError("scan out of memory"), KeyboardInterrupt()],
        ids=lambda e: type(e).__name__,
    )
    def test_scan_that_raises_is_raised_and_threads_end(self, monkeypatch, error):
        # the second match's scan raises: reconstruct raises that very
        # error, and every thread it started has ended
        y, sys, p = self._problem()
        p = dataclasses.replace(p, rematch_every=1)
        monkeypatch.setattr(solver, "CHUNK_BYTES", 3 * 8 * 25 * 3 * 6)  # 9 chunks
        monkeypatch.setattr(solver, "WORKERS", 3)
        scan, calls = patches._scan, []

        def broken(*args):
            calls.append(None)
            if len(calls) == 2:
                raise error
            return scan(*args)

        monkeypatch.setattr(patches, "_scan", broken)
        start = threading.active_count()
        with pytest.raises(type(error)) as raised:
            reconstruct(y, sys, p)
        assert raised.value is error
        assert len(calls) == 2
        assert threading.active_count() == start

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matching_starts_no_thread(self, monkeypatch, workers):
        # a 20 x 20 plane and window 4: five row offsets. Each rematch scans
        # them all in one _scan, on the main thread, with no thread of the
        # pool running; the pool runs once per iteration, for the group step
        y, sys, p = self._problem()
        p = dataclasses.replace(p, rematch_every=1, max_iter=3)
        monkeypatch.setattr(solver, "CHUNK_BYTES", 3 * 8 * 25 * 3 * 6)  # 9 chunks
        monkeypatch.setattr(solver, "WORKERS", workers)
        scan, in_order, scans, pools = patches._scan, solver._in_order, [], []

        def scan_spy(*args):
            scans.append((threading.current_thread() is threading.main_thread(),
                          threading.active_count()))
            return scan(*args)

        def in_order_spy(n, work, add):
            pools.append(n)
            return in_order(n, work, add)

        monkeypatch.setattr(patches, "_scan", scan_spy)
        monkeypatch.setattr(solver, "_in_order", in_order_spy)
        start = threading.active_count()
        reconstruct(y, sys, p)
        assert scans == [(True, start)] * p.max_iter
        assert pools == [9] * p.max_iter

    @staticmethod
    def _raised(y, sys, p, **kwargs):
        # what reconstruct raises on a thread named "caller", which must end in time
        out = []

        def call():
            try:
                reconstruct(y, sys, p, **kwargs)
            except BaseException as e:
                out.append(e)

        t = threading.Thread(target=call, name="caller", daemon=True)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive() and len(out) == 1
        return out[0]

    @pytest.mark.parametrize("failure", ["raises", "exits", "exits after a reply"])
    def test_worker_that_ends_without_a_result_raises_and_is_reaped(self, monkeypatch, failure):
        # the workers are the pool's helper threads. One raises in its first
        # chunk of a group step, or ends there by SystemExit (which ends a
        # thread's target unseen), or ends so in its second chunk, after its
        # first was returned: reconstruct raises that very error, and every
        # helper thread has been joined
        y, sys, p = self._problem()
        p = dataclasses.replace(p, rematch_every=1)
        monkeypatch.setattr(solver, "CHUNK_BYTES", 3 * 8 * 25 * 3 * 6)  # 9 chunks
        monkeypatch.setattr(solver, "WORKERS", 2)
        error = MemoryError("worker out of memory") if failure == "raises" else SystemExit(3)
        nth = 2 if failure == "exits after a reply" else 1
        denoise, helper_calls = solver._denoise, []

        def broken_denoise(*args, **kwargs):
            thread = threading.current_thread()
            if thread.name == "caller":
                time.sleep(0.02)  # the helper takes the next index meanwhile
            else:
                helper_calls.append(thread)
                if helper_calls.count(thread) == nth:
                    raise error
            return denoise(*args, **kwargs)

        monkeypatch.setattr(solver, "_denoise", broken_denoise)
        start = threading.active_count()
        assert self._raised(y, sys, p) is error
        assert helper_calls
        assert threading.active_count() == start

    @pytest.mark.parametrize("where", ["caller's chunk", "progress"])
    def test_raise_in_the_caller_reaps_the_workers(self, monkeypatch, where):
        # KeyboardInterrupt is no Exception: raised in the calling thread's
        # own chunk of a group step, or in progress between iterations, it
        # leaves no helper thread of the pool running
        y, sys, p = self._problem()
        p = dataclasses.replace(p, rematch_every=1)
        monkeypatch.setattr(solver, "CHUNK_BYTES", 3 * 8 * 25 * 3 * 6)  # 9 chunks
        monkeypatch.setattr(solver, "WORKERS", 3)
        denoise, ran_on = solver._denoise, []

        def spy(*args, **kwargs):
            ran_on.append(threading.current_thread().name)
            if ran_on[-1] != "caller":
                time.sleep(0.02)  # the caller takes a chunk meanwhile
            elif where == "caller's chunk" and ran_on.count("caller") == 2:
                raise KeyboardInterrupt
            return denoise(*args, **kwargs)

        def progress(it, fit, seconds):
            if it == 2:
                raise KeyboardInterrupt

        monkeypatch.setattr(solver, "_denoise", spy)
        kwargs = {"progress": progress} if where == "progress" else {}
        start = threading.active_count()
        assert isinstance(self._raised(y, sys, p, **kwargs), KeyboardInterrupt)
        assert "caller" in ran_on and set(ran_on) - {"caller"}
        assert threading.active_count() == start

    def test_matching_forks_no_process(self, monkeypatch):
        y, sys, p = self._problem()
        p = dataclasses.replace(p, rematch_every=1)
        monkeypatch.setattr(solver, "WORKERS", 3)
        forks = []

        def spy():
            forks.append(None)
            raise OSError("no fork expected")

        monkeypatch.setattr(os, "fork", spy)
        reconstruct(y, sys, p)
        assert not forks

    def test_overlapping_calls_do_not_wait_on_each_other(self, monkeypatch):
        # B starts while A is in its first progress call, then waits in its
        # own progress for A to return: two calls share no pool and hold no
        # lock across an iteration, so A runs on and returns.
        y, sys, p = self._problem()
        p = dataclasses.replace(p, rematch_every=1)
        monkeypatch.setattr(solver, "WORKERS", 1)
        expect = reconstruct(y, sys, p).tobytes()
        monkeypatch.setattr(solver, "WORKERS", 2)
        a_serving, b_started, a_done = threading.Event(), threading.Event(), threading.Event()
        out, b_saw_a_done = {}, []

        def a_progress(it, fit, seconds):
            if it == 1:
                a_serving.set()
                b_started.wait(timeout=60)

        def b_progress(it, fit, seconds):
            if it == 1:
                b_started.set()
                b_saw_a_done.append(a_done.wait(timeout=20))

        def call(name, progress, before, after):
            try:
                if before is not None:
                    before.wait(timeout=60)
                out[name] = reconstruct(y, sys, p, progress=progress)
            except BaseException as e:
                out[name] = e
            finally:
                if after is not None:
                    after.set()

        start = threading.active_count()
        threads = [
            threading.Thread(target=call, args=("a", a_progress, None, a_done), daemon=True),
            threading.Thread(target=call, args=("b", b_progress, a_serving, None), daemon=True),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90)
            assert not t.is_alive()
        assert b_saw_a_done == [True]
        assert out["a"].tobytes() == expect and out["b"].tobytes() == expect
        assert threading.active_count() == start

    def test_two_group_chunks_at_31_bands_independent_of_worker_count(self, monkeypatch):
        # one 25 x 31 x 6 group fills CHUNK_BYTES, so every chunk holds the
        # floor of two groups: 16 groups in 8 chunks
        f_true = make_smooth_cube(16, 16, 31, seed=4)
        sys = SystemModel(imaging.generate_mask(16, 16, 0.5, 6), 31)
        y = imaging.forward(f_true, sys)
        p = SolverParams(k=6, window=4, max_iter=4, rematch_every=3)
        monkeypatch.setattr(solver, "CHUNK_BYTES", 8 * 25 * 31 * 6)
        denoise, sizes = solver._denoise, []

        def spy(stacked, core_mag, params):
            sizes.append(len(stacked))
            return denoise(stacked, core_mag, params)

        monkeypatch.setattr(solver, "_denoise", spy)
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(solver, "WORKERS", workers)
            sizes.clear()
            outputs.append(reconstruct(y, sys, p).tobytes())
            assert sizes == [2] * 8 * p.max_iter
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_pool_holds_blas_at_one_thread_and_restores_the_count(self, monkeypatch):
        blas = solver._openblas()
        if blas is None:
            pytest.skip("no OpenBLAS with thread-count symbols is loaded")
        get, put = blas
        before = get()
        put(2)
        try:
            if get() != 2:
                pytest.skip("OpenBLAS does not take two threads here")
            y, sys, p = self._problem()
            denoise, seen = solver._denoise, []

            def spy(*args, **kwargs):
                seen.append(get())
                return denoise(*args, **kwargs)

            def fail(*args, **kwargs):
                seen.append(get())
                raise DataError("chunk failed")

            monkeypatch.setattr(solver, "_denoise", spy)
            reconstruct(y, sys, p)
            assert seen and set(seen) == {1}
            assert get() == 2
            seen.clear()
            monkeypatch.setattr(solver, "_denoise", fail)
            with pytest.raises(DataError, match="chunk failed"):
                reconstruct(y, sys, p)
            assert seen and set(seen) == {1}
            assert get() == 2
        finally:
            put(before)

    def test_openblas_found_under_a_path_with_spaces(self, monkeypatch, tmp_path):
        # a map line's path is its sixth field and may hold spaces; a mapped
        # file since deleted, whose path ends in " (deleted)", is passed over
        # even where a file of that name exists
        try:
            with open("/proc/self/maps") as maps:
                libs = [line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line]
        except OSError:
            pytest.skip("no /proc/self/maps")
        if solver._openblas() is None or not libs:
            pytest.skip("no OpenBLAS with thread-count symbols is loaded")
        (tmp_path / "my env").mkdir()
        spaced, deleted = tmp_path / "my env" / "libopenblas.so", tmp_path / "libopenblas.so"
        spaced.symlink_to(libs[0])
        (tmp_path / "libopenblas.so (deleted)").symlink_to(libs[0])

        def maps_of(path):
            text = f"7f0000000000-7f0000001000 r-xp 00000000 fe:00 1234        {path}\n"
            return lambda *args, **kwargs: io.StringIO(text)

        monkeypatch.setattr(solver, "open", maps_of(spaced), raising=False)
        blas = solver._openblas.__wrapped__()
        assert blas is not None and blas[0]() == solver._openblas()[0]()
        monkeypatch.setattr(solver, "open", maps_of(f"{deleted} (deleted)"), raising=False)
        assert solver._openblas.__wrapped__() is None

    def test_dcchi_rematching_every_iteration_independent_of_worker_count(self, monkeypatch):
        # long enough for the momentum to restart, which the spy confirms
        f_true = make_smooth_cube(20, 20, 3, seed=4)
        sys = SystemModel(imaging.generate_mask(20, 20, 0.5, 6), 3, imaging.DCCHI)
        y = imaging.forward(f_true, sys)
        p = SolverParams(k=6, window=4, max_iter=12, rematch_every=1, tau=0.1)
        monkeypatch.setattr(solver, "CHUNK_BYTES", 3 * 8 * 25 * 3 * 6)  # 9 chunks
        momentum, restarts = solver._momentum, []

        def spy(x, f_new, f_prev, t):
            x_next, t_next = momentum(x, f_new, f_prev, t)
            restarts.append(t_next == 1.0)
            return x_next, t_next

        monkeypatch.setattr(solver, "_momentum", spy)
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(solver, "WORKERS", workers)
            restarts.clear()
            outputs.append(reconstruct(y, sys, p).tobytes())
            assert len(restarts) == p.max_iter and any(restarts)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_match_counts_overflowing_distances(self):
        # the scan carries no candidate count: the fold counts the kept
        # distances below +inf, and one that overflows is among them. The
        # 2 x 2 corner's distance to every other candidate overflows, and its
        # group is its 49 window candidates, not itself 60 times.
        f = np.zeros((8, 8, 2))
        f[:2, :2] = 1e200
        f[5, 6, 1] = 2.0**600
        grid = patches.plan_grid(8, 8, 2, 2)
        anchors = itertools.product(grid.rows, grid.cols)
        expect = [[list(m) for m in patches.match_blocks(f, a, 2, 60, 7)] for a in anchors]
        plan = patches._match_plan(f.shape, grid, 60, 7)
        for _ in range(2):
            assert patches._match(f, plan).tolist() == expect

    @pytest.mark.parametrize("failing", [1, 2])
    def test_helper_thread_that_cannot_start_is_left_out(self, monkeypatch, failing):
        # at WORKERS 3 each iteration's group step starts two helper threads;
        # the first or the second start of each pair raises, as at a thread
        # limit, and the threads started do the work, with the bits of
        # WORKERS 1
        y, sys, p = self._problem()
        monkeypatch.setattr(solver, "CHUNK_BYTES", 3 * 8 * 25 * 3 * 6)  # 9 chunks
        monkeypatch.setattr(solver, "WORKERS", 1)
        expect = reconstruct(y, sys, p).tobytes()
        starts = []

        class Flaky(threading.Thread):
            def start(self):
                starts.append(None)
                if len(starts) % 2 == failing % 2:
                    raise RuntimeError("can't start new thread")
                super().start()

        monkeypatch.setattr(solver.threading, "Thread", Flaky)
        monkeypatch.setattr(solver, "WORKERS", 3)
        start = threading.active_count()
        assert reconstruct(y, sys, p).tobytes() == expect
        assert len(starts) == 2 * p.max_iter
        assert threading.active_count() == start

    @staticmethod
    def _adder(total):
        # the group step's kind of add: each result into total, in place
        return lambda part: np.add(total, part, out=total)

    def test_sum_order_fixed_under_any_timing(self, monkeypatch):
        # float addition does not associate, so any other order changes bits
        rng = np.random.default_rng(3)
        parts = [rng.standard_normal(64) * 10.0 ** rng.integers(-8, 9) for _ in range(40)]
        expect = np.zeros(64)
        for part in parts:
            expect += part
        delays = rng.random(40) * 2e-3

        def work(i):
            time.sleep(delays[i])
            return parts[i]

        for workers in (2, 3, 5):
            monkeypatch.setattr(solver, "WORKERS", workers)
            got = np.zeros(64)
            solver._in_order(len(parts), work, self._adder(got))
            assert got.tobytes() == expect.tobytes()

    def test_results_handed_to_add_one_at_a_time_in_order(self, monkeypatch):
        # more threads than CPUs and a short switch interval: an add that
        # yields between reading the list and writing it would misplace a
        # result if a second add ran meanwhile
        monkeypatch.setattr(solver, "WORKERS", 6)
        handed = []

        def work(i):
            time.sleep(0)
            return i

        def add(i):
            n = len(handed)
            time.sleep(0)
            handed[n:n] = [i]

        interval = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            solver._in_order(300, work, add)
        finally:
            setswitchinterval(interval)
        assert handed == list(range(300))

    def test_threads_stay_within_window_of_a_late_chunk(self, monkeypatch):
        # while chunk 0 runs, nothing is added, so at most 2 * WORKERS
        # chunks may be taken: later results would pile up unbounded
        monkeypatch.setattr(solver, "WORKERS", 3)
        first_done = threading.Event()
        started_early = []

        def work(i):
            if i == 0:
                time.sleep(0.1)
                first_done.set()
            elif not first_done.is_set():
                started_early.append(i)
            return np.full(2, float(i))

        total = np.zeros(2)
        solver._in_order(40, work, self._adder(total))
        assert total.tolist() == [780.0, 780.0]
        assert started_early and max(started_early) < 6

    def test_failure_wakes_a_thread_waiting_on_the_window(self, monkeypatch):
        # the caller's chunks are quick, so it fills the window and waits
        # for the worker's chunk, which fails
        monkeypatch.setattr(solver, "WORKERS", 2)
        caller, errors = [], []

        def work(i):
            if threading.current_thread() is caller[0]:
                time.sleep(0.002)
                return np.ones(2)
            time.sleep(0.05)
            raise DataError("late chunk")

        def call():
            caller.append(threading.current_thread())
            try:
                solver._in_order(50, work, self._adder(np.zeros(2)))
            except DataError as e:
                errors.append(e)

        t = threading.Thread(target=call, daemon=True)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive() and len(errors) == 1

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_result_that_does_not_fit_raises_and_threads_end(self, monkeypatch, workers):
        # the add of result 5 fails in whichever thread makes it: the error
        # is raised and no thread is left waiting
        monkeypatch.setattr(solver, "WORKERS", workers)
        start = threading.active_count()
        errors = []

        def work(i):
            time.sleep(0.002 * (i % 3))
            return np.ones(3 if i == 5 else 2)

        def call():
            try:
                solver._in_order(30, work, self._adder(np.zeros(2)))
            except ValueError as e:
                errors.append(e)

        t = threading.Thread(target=call, daemon=True)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive() and len(errors) == 1
        assert threading.active_count() == start

    def test_lowest_failing_chunk_raised_and_threads_joined(self, monkeypatch):
        # chunk 5 fails first in time, chunk 4 later: the error raised is
        # chunk 4's, as in a serial run. The calling thread's chunks are
        # slow, so a worker meets the first failure and must stop the rest.
        monkeypatch.setattr(solver, "WORKERS", 3)
        start = threading.active_count()
        calls = []

        def work(i):
            calls.append(i)
            if i == 5:
                raise DataError("chunk 5")
            slow = i == 4 or threading.current_thread() is threading.main_thread()
            time.sleep(0.05 if slow else 0.005)
            if i == 4:
                raise DataError("chunk 4")
            return np.ones(2)

        with pytest.raises(DataError, match="chunk 4"):
            solver._in_order(30, work, self._adder(np.zeros(2)))
        assert threading.active_count() == start
        assert len(calls) <= 10  # no new chunks once a failure is seen

    def test_non_finite_group_raises_and_threads_end(self, monkeypatch):
        y, sys, p = self._problem()
        monkeypatch.setattr(solver, "CHUNK_BYTES", 3 * 8 * 25 * 3 * 6)
        monkeypatch.setattr(solver, "WORKERS", 3)
        start = threading.active_count()
        reconstruct(y, sys, p)
        assert threading.active_count() == start

        real = solver._denoise  # the chunk step's kernel
        calls = []

        def poisoned(stacked, core_mag, params):
            calls.append(None)
            if len(calls) == 5:
                stacked = stacked.copy()
                stacked[0, 0, 0, 0] = np.nan
            return real(stacked, core_mag, params)

        monkeypatch.setattr(solver, "_denoise", poisoned)
        with pytest.raises(DataError):
            reconstruct(y, sys, p)
        assert threading.active_count() == start


class TestObjectiveDescent:
    def test_fixed_weights_cycle_non_increasing(self, rng):
        # One (shrink, CG-to-tolerance) cycle with fixed memberships and
        # fixed weights cannot increase the joint objective.
        f_true = make_smooth_cube(20, 20, 3, seed=2)
        mask = imaging.generate_mask(20, 20, 0.5, 3)
        sys = SystemModel(mask, 3)
        y = imaging.forward(f_true, sys)
        bp = imaging.adjoint(y, sys)
        f = cg_solve_image(bp, np.ones(f_true.shape), sys, tau=5e-4)
        tau = 1.0
        grid = patches.plan_grid(20, 20, 5, 4)
        members = [
            patches.match_blocks(f, a, 5, 8, 5) for a in itertools.product(grid.rows, grid.cols)
        ]
        w_fixed = 0.05

        def objective(fc, cores_and_factors):
            data = 0.5 * np.sum((imaging.forward(fc, sys).cassi - y.cassi) ** 2)
            group_term = 0.0
            for mem, (core, factors) in zip(members, cores_and_factors):
                stacked = patches.build_group(fc, mem, 5)
                rec = tucker_reconstruct(TuckerFactors(core, factors))
                group_term += tau * np.sum((stacked - rec) ** 2)
                group_term += w_fixed * np.sum(np.abs(core))
            return data + group_term

        # shrink step at the current iterate
        shrunk = []
        approxed = []
        for mem in members:
            tf = hosvd(patches.build_group(f, mem, 5))
            core = shrink_core(tf.core, np.full(tf.core.shape, w_fixed), tau)
            shrunk.append((core, tf.factors))
            approxed.append((mem, tucker_reconstruct(TuckerFactors(core, tf.factors))))
        obj_after_shrink = objective(f, shrunk)

        total, counts = patches.aggregate(approxed, f_true.shape)
        f_new = cg_solve_image(bp + 2.0 * tau * total, counts, sys, tau)
        obj_after_cg = objective(f_new, shrunk)
        assert obj_after_cg <= obj_after_shrink * (1.0 + 1e-8)


class TestCoreSparsityDiagnostic:
    def test_top_coefficients_dominate(self):
        cube = make_smooth_cube(48, 48, 8, seed=5)
        members = patches.match_blocks(cube, (20, 20), 5, 45, 20)
        core = hosvd(patches.build_group(cube, members, 5)).core
        mag2 = np.sort((core**2).ravel())[::-1]
        top = int(np.ceil(0.05 * mag2.size))
        assert mag2[:top].sum() / mag2.sum() >= 0.90


class TestDeterminism:
    def test_repeat_run_bit_identical(self, rng):
        f = make_smooth_cube(24, 24, 3, seed=9)
        sys = SystemModel(imaging.generate_mask(24, 24, 0.5, 4), 3)
        y = imaging.forward(f, sys)
        p = SolverParams(k=8, window=5, max_iter=5)
        a = reconstruct(y, sys, p)
        b = reconstruct(y, sys, p)
        assert a.tobytes() == b.tobytes()
