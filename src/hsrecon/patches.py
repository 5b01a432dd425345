"""Nonlocal patch grouping over a hyperspectral cube.

Full-band s x s patches are compared by squared Euclidean distance over
all bands, grouped with their nearest neighbors inside a local window, and
stacked into an ``(s*s, L, k)`` tensor: ``stacked[:, lam, m]`` is the
column-major vectorization of member ``m``'s spatial block in band
``lam``.

The public functions work one group at a time: ``match_blocks`` matches
one anchor, ``build_group`` stacks its members and ``aggregate`` adds
approximated groups back. ``plan_grid`` places the anchors, and
``coverage_counts`` counts the patches covering each pixel, one plane for
all bands, from a count of the member anchors. The group step of
``solver.reconstruct`` checks the members once per rematch, with
``coverage_counts``, and then runs private kernels on every anchor of the
grid, which the tests hold against the per-group functions:

- Matching, ``_match_plan``, ``_scan`` and ``_fold``, gives each anchor
  the members of ``match_blocks`` wherever no two candidate distances tie
  up to rounding, and bitwise where distances are exact. The cube is held
  as flat band planes, ``(L, rows*cols)`` (``_planes``), so for each row
  offset ``dr >= 0`` and column offset ``dc`` of the window, the
  band-summed squared difference between every pixel and the pixel
  ``(dr, dc)`` away is one pass over two slices of the planes, shifted by
  ``dr*cols + dc``. Its s x s box sum at ``a`` is the distance from ``a``
  to ``a + (dr, dc)``: each anchor's candidate at ``(dr, dc)`` and, read
  at ``anchor - (dr, dc)``, its candidate at ``(-dr, -dc)``. Pairs that
  wrap across a row end only reach candidates outside the plane, which
  are masked. Distances are sums of squared differences, never
  ``|a|^2 + |b|^2 - 2ab``, so identical patches are at distance 0 and
  equal distances stay equal. No table of every anchor's window is built:
  each anchor keeps its ``m = min(k, window candidates)`` smallest
  distances so far, leftmost among equals, in candidate order. The
  candidates seen after the offsets up to ``dr`` are window rows ``-dr``
  to ``dr``, so the next offset's mirrored row goes before the kept list
  and its direct row after, and the m smallest of the three are the m
  first of a stable sort of all of them. Matching so holds two window rows
  and m kept candidates per anchor, whatever the window. The rule holds
  for any ascending subset of the row offsets, so ``_scan`` takes a share
  of them, and ``_fold`` sorts the shares' kept lists by (distance,
  candidate index) into the members; the solver splits the offsets over
  threads.
- The group step's gather is ``np.take`` of ``_voxel_indices``, the flat
  indices of a chunk's voxels, and ``_scatter`` adds approximated groups
  back along them with ``np.bincount`` into the band of the flat cube
  that the chunk spans.
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
    "build_group",
    "aggregate",
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
    k = _check_k(k, 1)
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


def _check_k(k, groups: int) -> int:
    # k as an int if NumPy can size the (groups, k, 2) member anchors.
    k = check_int("k", k, 1)
    if groups * k * 2 * np.dtype(np.intp).itemsize > np.iinfo(np.intp).max:
        raise UsageError(f"k={k} is too large: NumPy cannot size a ({groups}, k, 2) array")
    return k


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
    below, at_v = x < v, x == v
    spare = m - np.count_nonzero(below, axis=1, keepdims=True)
    return below | (at_v & (np.cumsum(at_v, axis=1) <= spare))


@dataclass(frozen=True)
class _MatchPlan:
    # The geometry of matching every anchor of a grid on one plane: anchor
    # rows and columns, the window's half widths within the plane, and m.
    shape: tuple[int, int, int]
    s: int
    k: int
    ar: np.ndarray
    ac: np.ndarray
    wr: int
    wc: int
    m: int


def _match_plan(shape: tuple[int, int, int], grid: PatchGrid, k: int, window: int) -> _MatchPlan:
    # grid is plan_grid's for shape's plane (anchors in range), window SolverParams' int.
    rows, cols, _ = shape
    s, ar, ac = grid.patch_size, np.asarray(grid.rows, np.intp), np.asarray(grid.cols, np.intp)
    k = _check_k(k, len(ar) * len(ac))
    wr, wc = min(window, rows - s), min(window, cols - s)
    return _MatchPlan(tuple(shape), s, k, ar, ac, wr, wc, min(k, (2 * wr + 1) * (2 * wc + 1)))


def _planes(f: np.ndarray) -> np.ndarray:
    # The cube's flat band planes, (L, rows*cols), in a new array.
    return np.array(f.transpose(2, 0, 1), order="C").reshape(f.shape[2], -1)


def _scan(planes: np.ndarray, plan: _MatchPlan, drs) -> tuple[np.ndarray, np.ndarray]:
    # The share of the window's row offsets drs, ascending, as the module
    # docstring says: each anchor's m smallest distances over those rows,
    # leftmost among equals, in candidate order, and their candidate
    # indices. +inf marks a place no candidate has taken: an overflowing
    # distance is held at top.
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
            # The m smallest of the two rows and the kept list, leftmost among
            # equals, in candidate order: window row wr - dr, kept, row wr + dr.
            above, below = two_rows.reshape(2, g, tc)
            x = np.concatenate([above, best, below], axis=1)
            ids = np.broadcast_to((wr - dr) * tc + t, (g, tc))
            ids = np.concatenate([ids, at, ids + 2 * dr * tc], axis=1)
            keep = np.flatnonzero(_smallest_stable(x, m))
            best, at = x.ravel()[keep].reshape(g, m), ids.ravel()[keep].reshape(g, m)
            del sq, flat  # freed before the next offset's are allocated
    return best, at


def _fold(plan: _MatchPlan, shares) -> np.ndarray:
    # The (g, k, 2) members of the anchors of itertools.product(grid.rows,
    # grid.cols) from the _scan results of shares that partition the
    # window's row offsets, in any order. Each share keeps the m first of its
    # candidates by (distance, candidate index), so the m first of all of
    # them are among the shares' kept lists; the places no candidate took
    # (+inf) sort last, and the picks cycle through the others.
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


def _scatter(approx: np.ndarray, idx: np.ndarray) -> tuple[int, np.ndarray]:
    # The total of aggregate for approximated groups and their voxel
    # indices as (lo, band): lo the smallest index, and band the flat
    # total's entries lo to the largest index, accumulated in index order by
    # np.bincount. The total is zero outside the band. idx, a non-empty
    # C-contiguous array, is shifted by -lo in place. Nothing is checked.
    lo = int(idx.min())
    idx -= lo
    return lo, np.bincount(idx.ravel(), weights=approx.ravel())


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
