"""Nonlocal patch grouping over a hyperspectral cube.

Full-band s x s patches are compared by squared Euclidean distance over
all bands, grouped with their nearest neighbors inside a local window, and
stacked into an ``(s*s, L, k)`` tensor: ``stacked[:, lam, m]`` is the
column-major vectorization of member ``m``'s spatial block in band
``lam``.

The solver works on groups in batches. ``match_groups`` matches every
anchor of a grid in one pass over the window's row offsets, each offset
shifted differences of the cube's flat band planes, keeps each anchor's
k nearest so far as the offsets arrive and returns a ``(g, k, 2)`` array
of member anchors; ``solver.reconstruct`` runs its two halves itself,
``_scan`` of a share of the row offsets and ``_fold`` of the shares, to
split the offsets over processes. ``gather_groups`` stacks the members
into ``(g, s*s, L, k)`` with one fancy index into the flattened cube;
``coverage_counts`` counts the patches covering each pixel, one plane
for all bands, from a count of the member anchors. With
``tensors.hosvd_batch`` these are the public batched API. The group step
of ``solver.reconstruct`` checks the members once per rematch and then
runs private kernels per chunk:
``_voxel_indices``, the flat indices of a chunk's voxels, and
``_scatter``, which adds approximated groups back along them with
``np.bincount``; the tests hold both against ``build_group`` and
``aggregate``. ``match_blocks``, ``build_group`` and ``aggregate`` do
the work one group at a time. They are the reference path, public
because the benchmark traces them by name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, UsageError, check_array, check_int, check_sizes

__all__ = [
    "PatchGrid",
    "plan_grid",
    "match_blocks",
    "match_groups",
    "build_group",
    "aggregate",
    "gather_groups",
    "coverage_counts",
]


@dataclass(frozen=True)
class PatchGrid:
    """Reference-anchor lattice covering the image plane."""

    patch_size: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]


def _axis_anchors(extent: int, s: int, step: int) -> tuple[int, ...]:
    return tuple(range(0, extent - s, step)) + (extent - s,)


def plan_grid(rows: int, cols: int, s: int, step: int) -> PatchGrid:
    """Stride-``step`` anchors, last valid position always included."""
    rows, cols = check_int("rows", rows, 1), check_int("cols", cols, 1)
    if rows * cols * 8 > np.iinfo(np.intp).max:
        raise UsageError(f"rows={rows}, cols={cols}: NumPy cannot size the float64 plane")
    s = check_int("patch size", s, 1, min(rows, cols))
    step = check_int("step", step, 1)
    return PatchGrid(
        patch_size=s,
        rows=_axis_anchors(rows, s, step),
        cols=_axis_anchors(cols, s, step),
    )


def match_blocks(
    f: np.ndarray,
    anchor: tuple[int, int],
    s: int,
    k: int,
    window: int,
) -> list[tuple[int, int]]:
    """Anchor plus its k-1 nearest patches inside the search window.

    Candidates are every valid anchor whose row and column lie within
    +-window of ``anchor``; ties break in row-major candidate order. If
    fewer than ``k`` candidates exist, the selection repeats cyclically.
    """
    f = check_array("cube", f, 3)
    rows, cols, _ = f.shape
    s = check_int("patch size", s, 1, min(rows, cols))
    k = check_int("k", k, 1)
    window = check_int("window", window, 0)
    ar, ac = check_sizes("anchor", anchor, 2, 0)
    ar = check_int("anchor row", ar, 0, rows - s)
    ac = check_int("anchor column", ac, 0, cols - s)
    view = sliding_window_view(f, (s, s), axis=(0, 1))  # (R, C, L, s, s)
    r0, r1 = max(0, ar - window), min(rows - s, ar + window)
    c0, c1 = max(0, ac - window), min(cols - s, ac + window)
    ref = view[ar, ac]
    diff = view[r0 : r1 + 1, c0 : c1 + 1] - ref
    dist = np.einsum("rclij,rclij->rc", diff, diff)
    dist[ar - r0, ac - c0] = -1.0  # the anchor itself comes first
    order = np.argsort(dist, axis=None, kind="stable")
    rr, cc = np.divmod(order[np.arange(k) % order.size], dist.shape[1])
    return list(zip((rr + r0).tolist(), (cc + c0).tolist()))


def _box_sums(sq: np.ndarray, ys: np.ndarray, s: int) -> np.ndarray:
    # box[t, n, x] is the sum of sq[t, ys[n] + i, x + j] over i, j < s, added
    # term by term (no running sums), so equal inputs give equal sums.
    rowsum = sq[:, ys]
    for i in range(1, s):
        rowsum += sq[:, ys + i]
    n = rowsum.shape[2] - s + 1
    box = rowsum[..., :n].copy()
    for j in range(1, s):
        box += rowsum[..., j : j + n]
    return box


def _smallest_stable(x: np.ndarray, m: int) -> np.ndarray:
    # The mask of the first m entries of np.argsort(x, axis=1, kind="stable")
    # in each row of a 2-D x without NaN. The m-th smallest value v of each
    # row comes from a partition; the row keeps every entry below v and its
    # leftmost entries equal to v, m in all.
    v = np.partition(x, m - 1, axis=1)[:, m - 1 : m]
    keep = x <= v
    if np.count_nonzero(keep) > len(x) * m:  # rows with more entries equal to v than places left
        tied = np.flatnonzero(np.count_nonzero(keep, axis=1) > m)
        xt, vt = x[tied], v[tied]
        below = xt < vt
        at_v = xt == vt
        spare = m - np.count_nonzero(below, axis=1, keepdims=True)
        keep[tied] = below | (at_v & (np.cumsum(at_v, axis=1) <= spare))
    return keep


def _merge_smallest(best, at, enter, above, below, above_ids, below_ids) -> None:
    # For the anchors enter, keep in best and at the m smallest distances of
    # above, best and below, leftmost among equals, in that order, and their
    # candidate indices: above_ids, at and below_ids.
    n, m = len(enter), best.shape[1]
    x = np.concatenate([above[enter], best[enter], below[enter]], axis=1)
    ids = np.concatenate(
        [np.tile(above_ids, (n, 1)), at[enter], np.tile(below_ids, (n, 1))], axis=1
    )
    keep = np.flatnonzero(_smallest_stable(x, m))
    best[enter] = x.ravel()[keep].reshape(n, m)
    at[enter] = ids.ravel()[keep].reshape(n, m)


def match_groups(f: np.ndarray, grid: PatchGrid, k: int, window: int) -> np.ndarray:
    """:func:`match_blocks` for every anchor of ``grid`` at once.

    Returns a ``(G, k, 2)`` int array whose row ``n`` is :func:`match_blocks`
    of the ``n``-th anchor of ``itertools.product(grid.rows, grid.cols)``. The
    cube is held as flat band planes, ``(L, rows*cols)``, so for each row
    offset ``dr >= 0`` and column offset ``dc`` of the window, the
    band-summed squared difference between every pixel and the pixel
    ``(dr, dc)`` away is one pass over two contiguous slices of the planes,
    shifted by ``dr*cols + dc``. Its s x s box sum at position ``a`` is
    the distance from ``a`` to ``a + (dr, dc)``, which gives each anchor
    its candidate at ``(dr, dc)`` and, read at ``anchor - (dr, dc)``, its
    candidate at ``(-dr, -dc)``; pairs that wrap across a row end only
    reach candidates outside the plane, which are masked. The distances
    are sums of squared differences, never ``|a|^2 + |b|^2 - 2ab``, so
    identical patches are at distance 0 and equal distances stay equal.

    No table of every anchor's window is built. Each anchor keeps its
    ``m = min(k, window candidates)`` smallest distances so far, leftmost
    among equals, in candidate order: the candidates seen after row
    offsets up to ``dr`` are window rows ``-dr`` to ``dr``, so the mirrored
    row of the next offset goes before them and the direct row after, and
    the m smallest of the three, leftmost among equals, are the m first
    of a stable sort of all the anchor's candidates. Only anchors where a
    new candidate can enter are merged. The same holds for any ascending
    subset of the row offsets, so the offsets can be scanned in shares
    (``_scan``), and one sort of the shares' kept lists by distance, then
    candidate index, ends the call (``_fold``): the selection holds two
    rows per anchor and the m kept per share, whatever the window. Here
    one share holds every offset; ``solver.reconstruct`` splits them.
    """
    f = check_array("cube", f, 3)
    plan = _match_plan(f.shape, grid, k, window)
    return _fold(plan, [_scan(_planes(f), plan, range(plan.wr + 1))])


@dataclass(frozen=True)
class _MatchPlan:
    # The checked geometry of match_groups on one plane: anchor rows and
    # columns, the window's half widths within the plane, and m.
    shape: tuple[int, int, int]
    s: int
    k: int
    ar: np.ndarray
    ac: np.ndarray
    wr: int
    wc: int
    m: int


def _match_plan(shape: tuple[int, int, int], grid: PatchGrid, k: int, window: int) -> _MatchPlan:
    rows, cols, _ = shape
    s = check_int("patch size", grid.patch_size, 1, min(rows, cols))
    k = check_int("k", k, 1)
    window = check_int("window", window, 0)
    g = len(grid.rows) * len(grid.cols)
    if g * k * 2 * np.dtype(np.intp).itemsize > np.iinfo(np.intp).max:
        raise UsageError(f"k={k} is too large: NumPy cannot size a ({g}, k, 2) array")
    # Checked as Python ints: an anchor far out of range may not fit in intp.
    ar = np.array([check_int("anchor row", a, 0, rows - s) for a in grid.rows], dtype=np.intp)
    ac = np.array([check_int("anchor column", a, 0, cols - s) for a in grid.cols], dtype=np.intp)
    wr, wc = min(window, rows - s), min(window, cols - s)
    return _MatchPlan(tuple(shape), s, k, ar, ac, wr, wc, min(k, (2 * wr + 1) * (2 * wc + 1)))


def _planes(f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # The cube's flat band planes, (L, rows*cols), written into out if given.
    rows, cols, bands = f.shape
    if out is None:
        out = np.empty((bands, rows * cols))
    np.copyto(out.reshape(bands, rows, cols), f.transpose(2, 0, 1))
    return out


def _scan(planes: np.ndarray, plan: _MatchPlan, drs) -> tuple[np.ndarray, np.ndarray]:
    # The share of match_groups over the window's row offsets drs, ascending:
    # each anchor's m smallest distances over those rows, leftmost among
    # equals, in candidate order, and their candidate indices. +inf marks a
    # place no candidate has taken: an overflowing distance is held at top.
    rows, cols, _ = plan.shape
    s, ar, ac, wr, wc, m = plan.s, plan.ar, plan.ac, plan.wr, plan.wc, plan.m
    g, tc, top = len(ar) * len(ac), 2 * wc + 1, float(np.finfo(float).max)
    t = np.arange(tc)
    mirror_cols = np.clip(ac[:, None] - t + wc, 0, cols - s)
    cand = ac[:, None] + t - wc
    off_plane = (cand < 0) | (cand > cols - s)
    best = np.full((g, m), np.inf)
    at = np.zeros((g, m), dtype=np.intp)
    two_rows = np.empty((2, len(ar), len(ac), tc))
    with np.errstate(over="ignore"):
        for dr in drs:
            # sq[t, y, x]: squared distance over bands of pixel (y, x) to pixel
            # (y + dr, x + t - wc), or to the pixel that far along the flat plane
            # where that wraps; 0 where it leaves the plane.
            sq = np.zeros((tc, rows - dr, cols))
            flat = sq.reshape(tc, -1)
            for dc in range(-wc, wc + 1):
                sh = dr * cols + dc
                lo, hi = max(0, -sh), min(flat.shape[1], rows * cols - sh)
                d = planes[:, lo:hi] - planes[:, lo + sh : hi + sh]
                d *= d
                np.sum(d, axis=0, out=flat[dc + wc, lo:hi])
                del d  # one temporary the size of the planes at a time
            # two_rows[0]: window row wr - dr of each anchor, two_rows[1]: row wr + dr
            two_rows.fill(np.inf)
            down = ar + dr <= rows - s
            box = _box_sums(sq, ar[down], s)[:, :, ac]
            two_rows[1, down] = np.minimum(box, top, out=box).transpose(1, 2, 0)
            if dr:
                up = ar >= dr
                # box[a, t, n]: box of anchor row n at column mirror_cols[a, t]
                box = _box_sums(sq, ar[up] - dr, s)[t, :, mirror_cols]
                two_rows[0, up] = np.minimum(box, top, out=box).transpose(2, 0, 1)[..., ::-1]
            else:
                two_rows[1, :, :, wc] = -1.0  # the anchor itself comes first
            two_rows[:, :, off_plane] = np.inf
            # A candidate enters if it is below the m-th kept distance, or equal to
            # it and ahead of it in candidate order.
            above, below = two_rows.reshape(2, g, tc)
            worst = best.max(axis=1, keepdims=True)
            enter = np.flatnonzero((above <= worst).any(axis=1) | (below < worst).any(axis=1))
            if enter.size:
                ids = (wr - dr) * tc + t, (wr + dr) * tc + t
                _merge_smallest(best, at, enter, above, below, *ids)
            del sq, flat  # freed before the next offset's are allocated
    return best, at


def _fold(plan: _MatchPlan, shares) -> np.ndarray:
    # The members of match_groups from the _scan results of shares that
    # partition the window's row offsets, in any order. Each share keeps the
    # m first of its candidates by (distance, candidate index), so the m
    # first of all of them are among the shares' kept lists; the places no
    # candidate took (+inf) sort last, and the picks cycle through the others.
    best = np.concatenate([share[0] for share in shares], axis=1)
    at = np.concatenate([share[1] for share in shares], axis=1)
    order = np.lexsort((at, best), axis=1)
    valid = np.count_nonzero(best < np.inf, axis=1, keepdims=True)
    order = np.take_along_axis(order, np.arange(plan.k) % valid, axis=1)
    pick = np.take_along_axis(at, order, axis=1)
    ar, ac, tc = plan.ar, plan.ac, 2 * plan.wc + 1
    members = np.empty((len(pick), plan.k, 2), dtype=np.intp)
    members[..., 0] = np.repeat(ar, len(ac))[:, None] + pick // tc - plan.wr
    members[..., 1] = np.tile(ac, len(ar))[:, None] + pick % tc - plan.wc
    return members


def build_group(f: np.ndarray, members: list[tuple[int, int]], s: int) -> np.ndarray:
    """Stack the members' full-band blocks into an (s*s, L, k) tensor."""
    f = check_array("cube", f, 3, finite=False)
    s = check_int("patch size", s, 1, min(f.shape[:2]))
    bands = f.shape[2]
    stacked = np.empty((s * s, bands, len(members)))
    for m, (r, c) in enumerate(members):
        stacked[:, :, m] = f[r : r + s, c : c + s, :].reshape(s * s, bands, order="F")
    return stacked


def aggregate(
    groups: list[tuple[list[tuple[int, int]], np.ndarray]],
    dims: tuple[int, int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Scatter-add approximated groups into (sum, counts) cubes.

    Each group is its member anchors and an ``(s*s, L, k)`` approximation
    in the layout of :func:`build_group`. ``counts`` is the number of
    (group, member) patches covering each voxel; members listed multiple
    times contribute multiply. Groups are accumulated sequentially in list
    order, so the result is deterministic.
    """
    dims = check_sizes("dims", dims, 3, 0)
    total = np.zeros(dims)
    counts = np.zeros(dims)
    bands = dims[2]
    for members, approx in groups:
        approx = check_array("approximation", approx, 3, finite=False)
        s = math.isqrt(approx.shape[0])
        if approx.shape != (s * s, bands, len(members)):
            raise DimensionError(
                f"approximation shape {approx.shape} does not fit {len(members)} members"
                f" of {bands} bands"
            )
        if len(members):
            _check_members([members], s, dims[:2])
        for m, (r, c) in enumerate(members):
            block = approx[:, :, m].reshape(s, s, bands, order="F")
            total[r : r + s, c : c + s, :] += block
            counts[r : r + s, c : c + s, :] += 1.0
    return total, counts


def _check_indices(name: str, value) -> np.ndarray:
    # An integer array as intp: a float would be truncated to some other patch.
    try:
        value = np.asarray(value)
    except (TypeError, ValueError) as e:  # a ragged list, say
        raise UsageError(f"{name} must be an integer array: {e}") from None
    if value.dtype.kind not in "iu":
        raise UsageError(f"{name} must be an integer array, got dtype {value.dtype}")
    return value.astype(np.intp, copy=False)


def _check_members(members, s: int, plane: tuple[int, int]) -> tuple[np.ndarray, int]:
    # (g, k, 2) member anchors as intp, each with its s x s patch in the
    # plane, and the patch size.
    rows, cols = plane
    s = check_int("patch size", s, 1, min(rows, cols))
    members = _check_indices("member anchors", members)
    if members.ndim != 3 or members.shape[2] != 2:
        raise DimensionError(f"members must have shape (g, k, 2), got {members.shape}")
    r, c = members[..., 0], members[..., 1]
    if members.size and (
        r.min() < 0 or r.max() > rows - s or c.min() < 0 or c.max() > cols - s
    ):
        raise UsageError(f"member anchors out of range for patch size {s} in {plane}")
    return members, s


def _block_offsets(s: int, dims: tuple[int, int, int]) -> np.ndarray:
    # Entry [i + s*j, lam] is the flat offset of voxel (i, j, lam) of an
    # s x s patch from the patch's origin in a C-order ``dims`` cube.
    _, cols, bands = dims
    j, i = np.divmod(np.arange(s * s), s)
    return ((i * cols + j) * bands)[:, None] + np.arange(bands)


def _voxel_indices(
    members: np.ndarray,
    block: np.ndarray,
    dims: tuple[int, int, int],
    out: np.ndarray | None = None,
) -> np.ndarray:
    # Entry [n, i + s*j, lam, m] is the C-order flat index of voxel
    # (r + i, c + j, lam) of a ``dims`` cube, (r, c) = members[n, m], for
    # block = _block_offsets(s, dims), written into out if given. Nothing is
    # checked.
    _, cols, bands = dims
    origin = (members[..., 0] * cols + members[..., 1]) * bands
    return np.add(origin[:, None, None, :], block[None, :, :, None], out=out)


def _scatter(approx: np.ndarray, idx: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    # The total of aggregate for approximated groups and their voxel
    # indices, accumulated in index order by np.bincount. Nothing is checked.
    size = math.prod(dims)
    return np.bincount(idx.ravel(), weights=approx.ravel(), minlength=size).reshape(dims)


def gather_groups(f: np.ndarray, members: np.ndarray, s: int) -> np.ndarray:
    """Stack groups of member anchors into ``(g, s*s, L, k)`` tensors.

    ``members`` is a ``(g, k, 2)`` int array; ``stacked[n]`` equals
    ``build_group(f, members[n], s)``.
    """
    f = check_array("cube", f, 3, finite=False)
    members, s = _check_members(members, s, f.shape[:2])
    return f.ravel()[_voxel_indices(members, _block_offsets(s, f.shape), f.shape)]


def coverage_counts(members: np.ndarray, s: int, plane: tuple[int, int]) -> np.ndarray:
    """The ``counts`` of :func:`aggregate` as one ``(rows, cols, 1)`` plane for all bands.

    The member anchors are counted per pixel by one ``np.bincount``, and
    each pixel's count is the sum of the anchor counts in the s x s box
    that ends at it, in integers, so the counts are exact.
    """
    rows, cols = check_sizes("plane", plane, 2)
    members, s = _check_members(members, s, (rows, cols))
    flat = (members[..., 0] * cols + members[..., 1]).ravel()
    # anchors[0, s - 1 + r, s - 1 + c]: the members anchored at (r, c)
    anchors = np.zeros((1, rows + s - 1, cols + s - 1), dtype=np.intp)
    anchors[0, s - 1 :, s - 1 :] = np.bincount(flat, minlength=rows * cols).reshape(rows, cols)
    counts = _box_sums(anchors, np.arange(rows), s)
    return counts.astype(np.float64).reshape(rows, cols, 1)
