import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hsrecon.errors import DataError, DimensionError, HsreconError, UsageError
from hsrecon.patches import (
    PatchGrid,
    _block_offsets,
    _fold,
    _match_plan,
    _planes,
    _scan,
    _scatter,
    _smallest_stable,
    _voxel_indices,
    aggregate,
    build_group,
    coverage_counts,
    match_blocks,
    plan_grid,
)


class TestPlanGrid:
    def test_small_grid(self):
        grid = plan_grid(9, 9, 5, 4)
        assert grid.rows == (0, 4) and grid.cols == (0, 4)

    def test_single_anchor(self):
        grid = plan_grid(5, 5, 5, 4)
        assert grid.rows == (0,) and grid.cols == (0,)

    def test_full_scale_count(self):
        grid = plan_grid(256, 256, 5, 4)
        expect = sorted(set(range(0, 252, 4)) | {251})
        assert list(grid.rows) == expect
        assert len(grid.rows) == 64 and grid.cols == grid.rows

    def test_coverage(self):
        grid = plan_grid(13, 11, 5, 4)
        covered = np.zeros((13, 11), dtype=bool)
        for r, c in itertools.product(grid.rows, grid.cols):
            covered[r : r + 5, c : c + 5] = True
        assert covered.all()

    def test_patch_too_large(self):
        with pytest.raises(UsageError):
            plan_grid(4, 4, 5, 4)

    def test_plane_numpy_cannot_size(self):
        # rejected before any anchor is built
        with pytest.raises(UsageError, match=f"rows={10**30}, cols=10:"):
            plan_grid(10**30, 10, 3, 3)
        with pytest.raises(UsageError, match=f"rows=10, cols={10**30}:"):
            plan_grid(10, 10**30, 3, 3)

    @pytest.mark.parametrize("bad", [10.5, "10", None, True, 0, -3])
    def test_rows_and_cols_are_counts(self, bad):
        with pytest.raises(UsageError, match="rows"):
            plan_grid(bad, 10, 1, 1)
        with pytest.raises(UsageError, match="cols"):
            plan_grid(10, bad, 1, 1)


class TestMatchBlocks:
    def test_constant_cube_tie_break(self):
        f = np.full((8, 8, 2), 0.3)
        members = match_blocks(f, (2, 2), 3, 4, 2)
        # all distances zero: anchor first, then row-major scan order
        assert members[0] == (2, 2)
        assert members[1:] == [(0, 0), (0, 1), (0, 2)]

    def test_duplicate_patch_found(self, rng):
        f = rng.random((10, 10, 3))
        f[6 : 6 + 3, 1 : 1 + 3, :] = f[1 : 1 + 3, 2 : 2 + 3, :]
        members = match_blocks(f, (1, 2), 3, 2, 7)
        assert members == [(1, 2), (6, 1)]

    def test_k_one(self, rng):
        f = rng.random((8, 8, 2))
        assert match_blocks(f, (3, 3), 3, 1, 2) == [(3, 3)]

    def test_cyclic_repetition(self):
        f = np.zeros((5, 5, 2))
        members = match_blocks(f, (0, 0), 5, 4, 3)
        assert len(members) == 4
        assert members == [(0, 0), (0, 0), (0, 0), (0, 0)]

    def test_anchor_out_of_range(self):
        with pytest.raises(UsageError):
            match_blocks(np.zeros((8, 8, 2)), (7, 0), 3, 2, 2)

    def test_rejects_bad_cubes_and_anchors(self):
        with pytest.raises(DimensionError):
            match_blocks(np.zeros((8, 8)), (0, 0), 3, 2, 2)
        for anchor in [(1.5, 0), (0, 2.0), (np.nan, 0), (True, 0)]:
            with pytest.raises(UsageError, match="anchor"):
                match_blocks(np.zeros((8, 8, 2)), anchor, 3, 2, 2)
        for anchor in [(1,), (0, 0, 0), None, 1]:  # the third entry was ignored
            with pytest.raises(DimensionError, match="anchor"):
                match_blocks(np.zeros((8, 8, 2)), anchor, 3, 2, 2)
        f = np.zeros((8, 8, 2))
        f[4, 4, 1] = np.nan
        with pytest.raises(DataError):
            match_blocks(f, (0, 0), 3, 2, 2)

    # (2**62, 2) intp member anchors are 2**66 bytes, past NumPy's limit; 10**12
    # is sized (7.28 TiB) and left to the allocator
    @pytest.mark.parametrize("k", [2**62, 10**20])
    def test_k_numpy_cannot_size_is_a_usage_error(self, k):
        with pytest.raises(UsageError, match=f"k={k} is too large"):
            match_blocks(np.zeros((8, 8, 2)), (3, 3), 3, k, 3)

    def test_deterministic(self, rng):
        f = rng.random((12, 12, 3))
        a = match_blocks(f, (4, 4), 3, 6, 4)
        b = match_blocks(f, (4, 4), 3, 6, 4)
        assert a == b

    def test_distance_symmetry(self, rng):
        f = rng.random((12, 12, 3))

        def dist(p, q):
            pa = f[p[0] : p[0] + 3, p[1] : p[1] + 3, :]
            qa = f[q[0] : q[0] + 3, q[1] : q[1] + 3, :]
            return float(np.sum((pa - qa) ** 2))

        assert dist((1, 2), (5, 6)) == pytest.approx(dist((5, 6), (1, 2)), rel=1e-15)


def _stacked_match_blocks(f, grid, s, k, window):
    anchors = itertools.product(grid.rows, grid.cols)
    return np.array([match_blocks(f, a, s, k, window) for a in anchors], dtype=np.intp)


def _match_all(f, grid, k, window):
    # every anchor of grid matched at once: one _scan of every row offset, folded
    plan = _match_plan(f.shape, grid, k, window)
    return _fold(plan, [_scan(_planes(f), plan, range(plan.wr + 1))])


@st.composite
def _quarter_cubes(draw, max_row_period=None, huge=False):
    # Values are multiples of 1/4, so every distance is exact in any
    # summation order: ties are real and member lists must agree bitwise.
    # A period smaller than the plane repeats identical patches. With huge,
    # some values may be 2**600, so that distances between patches that
    # differ there overflow: match_blocks reads them as +inf, and they are
    # candidates all the same.
    rows = draw(st.integers(1, 14))
    cols = draw(st.integers(1, 14))
    bands = draw(st.integers(1, 3))
    levels = draw(st.integers(1, 4))
    period_r = draw(st.integers(1, min(rows, max_row_period or rows)))
    period_c = draw(st.integers(1, cols))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    base = rng.integers(0, levels, (period_r, period_c, bands)) / 4.0
    if huge:
        base[rng.random(base.shape) < draw(st.sampled_from([0.0, 0.02, 0.1, 0.5]))] = 2.0**600
    cube = np.tile(base, (-(-rows // period_r), -(-cols // period_c), 1))
    return cube[:rows, :cols]


class TestMatchAll:
    @settings(max_examples=150, deadline=None)
    @given(
        f=_quarter_cubes(huge=True),
        s=st.integers(1, 4),
        step=st.integers(1, 4),
        k=st.integers(1, 60),
        window=st.integers(0, 16),
    )
    def test_equals_match_blocks_on_exact_distances(self, f, s, step, k, window):
        s = min(s, f.shape[0], f.shape[1])
        grid = plan_grid(f.shape[0], f.shape[1], s, step)
        got = _match_all(f, grid, k, window)
        assert got.dtype == np.intp
        assert np.array_equal(got, _stacked_match_blocks(f, grid, s, k, window))

    @settings(max_examples=100, deadline=None)
    @given(
        f=_quarter_cubes(max_row_period=2),
        s=st.integers(1, 3),
        step=st.integers(1, 3),
        window=st.integers(0, 4),
        extra=st.integers(-3, 12),
    )
    def test_equals_match_blocks_with_row_ties_and_k_past_the_window(
        self, f, s, step, window, extra
    ):
        # Rows repeat with period 1 or 2, so candidates at row offsets -dr and
        # +dr, and on rows met at different offsets, tie exactly; k reaches
        # past the (2w + 1)^2 window, where the selection repeats cyclically.
        s = min(s, f.shape[0], f.shape[1])
        k = max(1, (2 * window + 1) ** 2 + extra)
        grid = plan_grid(f.shape[0], f.shape[1], s, step)
        got = _match_all(f, grid, k, window)
        assert np.array_equal(got, _stacked_match_blocks(f, grid, s, k, window))

    def test_peak_memory_below_the_window_table(self, rng):
        # 1521 anchors with a 25 x 25 window: a float64 distance for every
        # anchor and window candidate would take 7.6 MB, about twice what
        # the selection holds at once
        f = rng.random((40, 40, 1))
        grid = plan_grid(40, 40, 2, 1)
        g, window = len(grid.rows) * len(grid.cols), 12
        tracemalloc.start()
        try:
            _match_all(f, grid, 8, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g * (2 * window + 1) ** 2 * 8

    @pytest.mark.parametrize(
        "shape, s, step, k, window",
        [
            ((13, 11, 3), 4, 3, 7, 3),
            ((20, 17, 5), 5, 4, 45, 20),
            ((9, 30, 2), 3, 2, 12, 6),
            ((24, 24, 31), 5, 4, 45, 20),
            ((16, 16, 4), 4, 3, 300, 40),
        ],
    )
    def test_equals_match_blocks_real_valued(self, rng, shape, s, step, k, window):
        f = rng.random(shape)
        grid = plan_grid(shape[0], shape[1], s, step)
        got = _match_all(f, grid, k, window)
        assert np.array_equal(got, _stacked_match_blocks(f, grid, s, k, window))

    def test_identical_patches_at_distance_zero(self, rng):
        # real-valued duplicates, as in test_duplicate_patch_found
        f = rng.random((10, 10, 3))
        f[6 : 6 + 3, 1 : 1 + 3, :] = f[1 : 1 + 3, 2 : 2 + 3, :]
        grid = PatchGrid(patch_size=3, rows=(1, 6), cols=(1, 2))
        got = _match_all(f, grid, 2, 7)
        assert got[1].tolist() == [[1, 2], [6, 1]]
        assert got[2].tolist() == [[6, 1], [1, 2]]

    def test_rows_wrap_at_every_column_offset(self, rng):
        # The window spans the whole 19-column plane, so at every column offset
        # some pairs of the flat band planes wrap across a row end; k > 108
        # candidates also repeats the selection cyclically.
        f = rng.integers(0, 3, (7, 19, 3)) / 4.0
        grid = plan_grid(7, 19, 2, 1)
        got = _match_all(f, grid, 120, 30)
        assert np.array_equal(got, _stacked_match_blocks(f, grid, 2, 120, 30))

    @pytest.mark.parametrize("tiled", [False, True], ids=["constant", "tiled"])
    @pytest.mark.parametrize(
        "shape, s, step, k, window, grid_shape",
        [
            ((5, 17, 2), 5, 2, 9, 6, (1, 7)),
            ((17, 4, 3), 4, 3, 9, 6, (6, 1)),
            # wider than the 9x11 plane; k > 63 candidates repeats cyclically
            ((9, 11, 3), 3, 2, 70, 30, (4, 5)),
        ],
        ids=["one-anchor-row", "one-anchor-column", "window-wider-than-image"],
    )
    def test_equals_match_blocks_on_tie_heavy_cubes(
        self, tiled, shape, s, step, k, window, grid_shape
    ):
        # matching selects one anchor row at a time; ties must still
        # break as in match_blocks, anchor by anchor
        rows, cols, bands = shape
        if tiled:  # one s x s patch repeated over the plane
            patch = np.random.default_rng(7).integers(0, 4, (s, s, bands)) / 4.0
            f = np.tile(patch, (-(-rows // s), -(-cols // s), 1))[:rows, :cols]
        else:
            f = np.full(shape, 0.5)
        grid = plan_grid(rows, cols, s, step)
        assert (len(grid.rows), len(grid.cols)) == grid_shape
        got = _match_all(f, grid, k, window)
        expect = _stacked_match_blocks(f, grid, s, k, window)
        for n, anchor in enumerate(itertools.product(grid.rows, grid.cols)):
            assert got[n].tolist() == expect[n].tolist(), anchor

    # the last two: a (16, k, 2) intp array of 2**63 bytes or more, past NumPy's limit
    @pytest.mark.parametrize("k, window", [(0, 2), (-1, 2), (2**55, 2), (10**20, 2)])
    def test_rejects_bad_k_and_window(self, k, window):
        with pytest.raises(UsageError):
            _match_plan((8, 8, 2), plan_grid(8, 8, 3, 2), k, window)


def _fold_of_shares(f, grid, k, window, share_of):
    # _match_all through one _scan per share, the row offset dr going to
    # share share_of(dr, n_offsets), and the shares folded last first
    plan = _match_plan(f.shape, grid, k, window)
    offsets = range(plan.wr + 1)
    owners = [share_of(dr, len(offsets)) for dr in offsets]
    planes = _planes(f)
    shares = [
        _scan(planes, plan, [dr for dr in offsets if owners[dr] == i])
        for i in range(max(owners) + 1)
    ]
    return _fold(plan, shares[::-1])


def _interleaved(n):
    return lambda dr, _: dr % n


def _contiguous(n):
    return lambda dr, count: dr * n // count


class TestFold:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        rows=st.integers(1, 14),
        cols=st.integers(1, 14),
        bands=st.integers(1, 3),
        levels=st.integers(1, 4),
        s=st.integers(1, 4),
        step=st.integers(1, 4),
        k=st.integers(1, 60),
        window=st.integers(0, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_partition_of_row_offsets_folds_to_one_share(
        self, data, rows, cols, bands, levels, s, step, k, window, seed
    ):
        # 0.1-rounded values: few distinct levels, so distances tie often,
        # and they are inexact in binary, so a share must compute each
        # distance as the whole scan does, bit for bit
        f = np.round(np.random.default_rng(seed).integers(0, levels, (rows, cols, bands)) * 0.1, 1)
        s = min(s, rows, cols)
        grid = plan_grid(rows, cols, s, step)
        n = min(window, max(rows, cols) - s) + 1  # at least the row offsets
        owners = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        kind = data.draw(st.sampled_from(["interleaved", "contiguous", "any"]))
        count = data.draw(st.integers(1, 4))
        share_of = {
            "interleaved": _interleaved(count),
            "contiguous": _contiguous(count),
            "any": lambda dr, _: owners[dr],
        }[kind]
        got = _fold_of_shares(f, grid, k, window, share_of)
        assert got.dtype == np.intp
        assert np.array_equal(got, _match_all(f, grid, k, window))

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        f=_quarter_cubes(huge=True),
        s=st.integers(1, 4),
        step=st.integers(1, 4),
        k=st.integers(1, 60),
        window=st.integers(0, 8),
    )
    def test_shares_fold_to_match_blocks_where_distances_overflow(
        self, data, f, s, step, k, window
    ):
        # each share counts an overflowing distance as a candidate, so the
        # fold stops at the same place as match_blocks
        rows, cols, _ = f.shape
        s = min(s, rows, cols)
        grid = plan_grid(rows, cols, s, step)
        n = min(window, max(rows, cols) - s) + 1
        owners = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        got = _fold_of_shares(f, grid, k, window, lambda dr, _: owners[dr])
        assert np.array_equal(got, _stacked_match_blocks(f, grid, s, k, window))

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "split", [_interleaved, _contiguous], ids=["interleaved", "contiguous"]
    )
    @pytest.mark.parametrize(
        "shape, s, step, k, window",
        [
            ((13, 11, 3), 3, 2, 7, 0),  # one row offset: the other shares are empty
            ((9, 11, 3), 3, 2, 70, 30),  # wider than the plane; k > 63 candidates
            ((20, 17, 5), 5, 4, 45, 20),
            ((16, 16, 4), 4, 3, 300, 40),  # k above every anchor's candidate count
        ],
        ids=["window-0", "window-wider-than-plane", "rematch-size", "k-past-candidates"],
    )
    def test_named_cases_fold_to_one_share(self, shape, s, step, k, window, split, count):
        f = np.round(np.random.default_rng(11).random(shape), 1)
        grid = plan_grid(shape[0], shape[1], s, step)
        got = _fold_of_shares(f, grid, k, window, split(count))
        assert np.array_equal(got, _match_all(f, grid, k, window))


@st.composite
def _tied_rows(draw):
    # Distance rows as _scan builds them: few distinct values, +inf
    # for candidates outside the plane and -1 at the anchor's own slot.
    n = draw(st.integers(1, 24))
    values = st.one_of(st.sampled_from([0.0, 0.25, 0.5, np.inf]), st.floats(0.0, 4.0))
    x = draw(hnp.arrays(np.float64, (draw(st.integers(1, 5)), n), elements=values))
    anchors = draw(st.lists(st.integers(0, n - 1), min_size=len(x), max_size=len(x)))
    x[np.arange(len(x)), anchors] = -1.0
    return x


class TestSmallestStable:
    @settings(max_examples=150, deadline=None)
    @given(x=_tied_rows())
    def test_equals_stable_argsort_prefix(self, x):
        full = np.argsort(x, axis=1, kind="stable")
        for m in range(1, x.shape[1] + 1):
            kept = np.nonzero(_smallest_stable(x, m))[1].reshape(len(x), m)
            assert np.array_equal(kept, np.sort(full[:, :m], axis=1))


class TestBuildGroup:
    def test_degenerate_patch(self, rng):
        f = rng.random((6, 6, 4))
        members = [(2, 3), (4, 1)]
        stacked = build_group(f, members, 1)
        for m, (r, c) in enumerate(members):
            np.testing.assert_array_equal(stacked[0, :, m], f[r, c, :])

    def test_constant_cube(self):
        f = np.full((8, 8, 3), 0.7)
        assert np.all(build_group(f, [(0, 0), (2, 2)], 4) == 0.7)

    def test_indexing_oracle(self, rng):
        # column-major vectorization within the spatial block
        f = rng.random((8, 8, 3))
        s = 3
        members = [(1, 2), (4, 4)]
        stacked = build_group(f, members, s)
        for m, (r, c) in enumerate(members):
            for lam in range(3):
                for i in range(s):
                    for j in range(s):
                        assert stacked[i + j * s, lam, m] == f[r + i, c + j, lam]


class TestAggregate:
    def test_single_member(self):
        f = np.arange(2 * 2 * 2, dtype=float).reshape(2, 2, 2) + 1.0
        total, counts = aggregate([([(0, 0)], build_group(f, [(0, 0)], 2))], (3, 3, 2))
        assert np.all(counts[:2, :2, :] == 1.0)
        assert np.all(counts[2, :, :] == 0.0) and np.all(counts[:, 2, :] == 0.0)
        np.testing.assert_array_equal(total[:2, :2, :], f)

    def test_overlap_counts(self, rng):
        f = rng.random((6, 6, 2))
        members = [(0, 0), (0, 2)]
        _, counts = aggregate([(members, build_group(f, members, 4))], (6, 6, 2))
        assert np.all(counts[0:4, 2:4, :] == 2.0)
        assert np.all(counts[0:4, 0:2, :] == 1.0)

    def test_empty(self):
        total, counts = aggregate([], (4, 4, 2))
        assert not np.any(total) and not np.any(counts)

    def test_dims_mismatch(self):
        for shape in [(9, 2, 2), (9, 3, 1), (8, 2, 1), (9, 2)]:
            with pytest.raises(DimensionError):
                aggregate([([(0, 0)], np.zeros(shape))], (6, 6, 2))

    @pytest.mark.parametrize("members", [[(5, 5)], [(-1, 0)], [(0.5, 0)], [(0, 0, 0)]])
    def test_members_are_anchors_in_the_plane(self, members):
        # each used to raise a bare ValueError or TypeError in the scatter
        approx = np.ones((9, 2, 1))
        with pytest.raises(HsreconError, match="member"):
            aggregate([(members, approx)], (6, 6, 2))

    def test_approximation_is_a_real_array(self):
        approx = np.ones((9, 2, 1))
        with pytest.raises(UsageError, match="approximation"):
            aggregate([([(0, 0)], approx + 1j)], (6, 6, 2))
        with pytest.raises(DimensionError, match="approximation"):
            aggregate([([(0, 0)], approx[0])], (6, 6, 2))
        total, _ = aggregate([([(0, 0)], approx.astype(np.float32))], (6, 6, 2))
        assert total.dtype == np.float64 and total[:3, :3].sum() == 18.0

    @pytest.mark.parametrize("dims, error", [
        ((4, 4), DimensionError), ((4, -4, 2), UsageError), ((4, 4, 2.0), UsageError)
    ])
    def test_dims_are_three_counts(self, dims, error):
        f = np.ones((4, 4, 2))
        groups = [([(0, 0)], build_group(f, [(0, 0)], 2))]
        with pytest.raises(error, match="dims"):
            aggregate(groups, dims)
        with pytest.raises(error, match="dims"):
            aggregate([], dims)

    def test_exactness_invariant(self, rng):
        # aggregating unmodified stacks reproduces counts * f
        f = rng.random((20, 20, 4))
        grid_anchors = [
            (r, c) for r in (0, 4, 8, 12, 15) for c in (0, 4, 8, 12, 15)
        ]
        groups = []
        for anchor in grid_anchors:
            members = match_blocks(f, anchor, 5, 6, 4)
            groups.append((members, build_group(f, members, 5)))
        total, counts = aggregate(groups, f.shape)
        assert np.all(counts >= 1.0)
        np.testing.assert_allclose(total, counts * f, rtol=1e-12)


def _coverage_by_voxel_index(members, s, rows, cols):
    # One flat index per member and voxel of its patch, counted by bincount.
    i, j = np.divmod(np.arange(s * s), s)
    idx = (members[..., 0] * cols + members[..., 1])[..., None] + i * cols + j
    return np.bincount(idx.ravel(), minlength=rows * cols).astype(float).reshape(rows, cols, 1)


class TestCoverageCounts:
    @pytest.mark.parametrize(
        "rows, cols, s",
        [(9, 13, 1), (9, 13, 9), (13, 9, 9), (10, 7, 3), (1, 6, 1), (6, 6, 6), (12, 12, 5)],
    )
    def test_equals_voxel_index_oracle(self, rng, rows, cols, s):
        # random anchors, repeated within and across groups, plus anchors on
        # each of the four edges and in each corner, and a group of one anchor
        hi_r, hi_c = rows - s, cols - s
        members = np.stack(
            [rng.integers(0, hi_r + 1, (7, 9)), rng.integers(0, hi_c + 1, (7, 9))], axis=-1
        )
        members[0, :8] = [
            [0, hi_c // 2], [hi_r, hi_c // 3], [hi_r // 2, 0], [hi_r // 3, hi_c],
            [0, 0], [0, hi_c], [hi_r, 0], [hi_r, hi_c],
        ]
        members[1] = members[1, 0]
        got = coverage_counts(members, s, (rows, cols))
        assert got.dtype == np.float64
        assert got.tobytes() == _coverage_by_voxel_index(members, s, rows, cols).tobytes()

    def test_empty_members(self):
        got = coverage_counts(np.zeros((0, 3, 2), dtype=int), 2, (4, 5))
        assert got.shape == (4, 5, 1) and not got.any()

    def test_peak_memory_below_the_voxel_index(self, rng):
        # an int64 index of every member voxel would take 8.2 MB
        g, k, s = 400, 40, 8
        members = rng.integers(0, 64 - s + 1, (g, k, 2))
        tracemalloc.start()
        try:
            coverage_counts(members, s, (64, 64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g * s * s * k * 8


def _matched(f, s, k, window, step):
    return _stacked_match_blocks(f, plan_grid(f.shape[0], f.shape[1], s, step), s, k, window)


def _built(f, members, s):
    # build_group of every group of a (g, k, 2) member array, stacked
    return np.stack([build_group(f, [tuple(m) for m in mem], s) for mem in members])


class TestBatchedGroups:
    def test_gather_is_build_group_bitwise(self, rng):
        # the group step's gather, np.take along _voxel_indices
        f = rng.random((13, 11, 3))
        members = _matched(f, 4, 7, 3, 3)
        idx = _voxel_indices(members, _block_offsets(4, f.shape), f.shape)
        stacked = np.take(f.ravel(), idx)
        assert stacked.shape == (len(members), 16, 3, 7)
        for n, mem in enumerate(members):
            expect = build_group(f, [tuple(m) for m in mem], 4)
            assert stacked[n].tobytes() == expect.tobytes()

    def test_scatter_and_counts_match_aggregate(self, rng):
        # criterion 5's setup (20x20x4, s=5, step=4, k=6, window=4) on the
        # group step's kernels, with perturbed approximations
        f = rng.random((20, 20, 4))
        members = _matched(f, 5, 6, 4, 4)
        stacked = _built(f, members, 5)
        idx = _voxel_indices(members, _block_offsets(5, f.shape), f.shape)
        assert f.ravel()[idx].tobytes() == stacked.tobytes()
        approx = stacked + rng.standard_normal(stacked.shape)
        groups = [([tuple(m) for m in mem], approx[n]) for n, mem in enumerate(members)]
        total, counts = aggregate(groups, f.shape)
        got = np.zeros(f.size)
        for lo_g in range(0, len(members), 2):  # the group step's two-group chunks
            chunk = idx[lo_g : lo_g + 2]
            shifted = chunk.copy()
            lo, band = _scatter(approx[lo_g : lo_g + 2], shifted)
            # the band spans the chunk's indices, which are shifted in place
            assert lo == chunk.min() and lo + band.size == chunk.max() + 1
            assert np.array_equal(shifted, chunk - lo)
            got[lo : lo + band.size] += band
        got = got.reshape(f.shape)
        assert np.max(np.abs(got - total)) <= 1e-12 * np.max(np.abs(total))
        plane = coverage_counts(members, 5, f.shape[:2])
        assert plane.shape == (20, 20, 1)
        assert np.array_equal(np.broadcast_to(plane, counts.shape), counts)
        lo, band = _scatter(stacked, idx.copy())
        exact = np.zeros(f.size)
        exact[lo : lo + band.size] = band
        np.testing.assert_allclose(exact.reshape(f.shape), counts * f, rtol=1e-12)

    def test_member_out_of_range(self):
        with pytest.raises(UsageError):
            coverage_counts(np.array([[[0, 0], [3, 0]]]), 4, (6, 6))
        with pytest.raises(DimensionError):
            coverage_counts(np.array([[0, 0]]), 4, (6, 6))

    def test_member_anchors_must_be_integers(self):
        # a float anchor used to be truncated to another patch's
        bad = np.full((1, 2, 2), 1.5), np.full((1, 2, 2), np.nan), np.ones((1, 2, 2), bool)
        for members in bad:
            with pytest.raises(UsageError, match="integer"):
                coverage_counts(members, 3, (6, 6))
        members = np.array([[[0, 0], [1, 1]]])
        counts = coverage_counts(members.astype(np.uint8), 3, (6, 6))
        assert counts.tobytes() == coverage_counts(members, 3, (6, 6)).tobytes()

    def test_member_lists_must_not_be_ragged(self):
        ragged = [[[0, 0], [1, 1]], [[0, 0]]]
        with pytest.raises(UsageError, match="integer array"):
            coverage_counts(ragged, 3, (6, 6))

    # An 8x8 plane with one group: a plane is two counts.
    @pytest.mark.parametrize("plane, error", [
        ((8,), DimensionError), (8, DimensionError), ((8, 8.0), UsageError)
    ])
    def test_counts_plane_is_two_counts(self, plane, error):
        with pytest.raises(error, match="plane"):
            coverage_counts(np.array([[[0, 0], [4, 4]]]), 3, plane)
