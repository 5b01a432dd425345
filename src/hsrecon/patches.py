"""Nonlocal patch grouping over a hyperspectral cube.

Full-band s x s patches are compared by squared Euclidean distance over
all bands, grouped with their nearest neighbors inside a local window, and
stacked into an ``(s*s, L, k)`` tensor: ``stacked[:, lam, m]`` is the
column-major vectorization of member ``m``'s spatial block in band
``lam``.

The solver works on groups in batches. ``match_groups`` matches every
anchor of a grid in one pass over the window's offsets, each offset one
shifted difference of the cube's flat band planes, picks the k nearest
by a partition and returns a ``(g, k, 2)`` array of member anchors;
``gather_groups`` stacks it into ``(g, s*s, L, k)`` with one fancy index
into the flattened cube and returns those flat indices;
``scatter_groups`` adds approximated groups back along the same indices
with ``np.bincount``; ``coverage_counts`` counts the patches covering
each voxel. ``match_blocks``, ``build_group`` and ``aggregate`` do the
same one group at a time and stay as the reference the batched path is
tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, UsageError, check_array, check_int

__all__ = [
    "PatchGrid",
    "plan_grid",
    "match_blocks",
    "match_groups",
    "build_group",
    "aggregate",
    "gather_groups",
    "scatter_groups",
    "coverage_counts",
]


@dataclass(frozen=True)
class PatchGrid:
    """Reference-anchor lattice covering the image plane."""

    patch_size: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]

    @property
    def anchors(self) -> list[tuple[int, int]]:
        return [(r, c) for r in self.rows for c in self.cols]


def _axis_anchors(extent: int, s: int, step: int) -> tuple[int, ...]:
    anchors = set(range(0, extent - s + 1, step))
    anchors.add(extent - s)
    return tuple(sorted(anchors))


def plan_grid(rows: int, cols: int, s: int, step: int) -> PatchGrid:
    """Stride-``step`` anchors, last valid position always included."""
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
    ar = check_int("anchor row", anchor[0], 0, rows - s)
    ac = check_int("anchor column", anchor[1], 0, cols - s)
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
    # The first m columns of np.argsort(x, axis=1, kind="stable") for a 2-D x
    # without NaN. The m-th smallest value v of each row comes from a
    # partition; the row keeps every entry below v and its leftmost entries
    # equal to v, m in all, and only those m are sorted.
    v = np.partition(x, m - 1, axis=1)[:, m - 1 : m]
    keep = x <= v
    tied = np.flatnonzero(np.count_nonzero(keep, axis=1) > m)
    if tied.size:  # rows with more entries equal to v than places left
        xt, vt = x[tied], v[tied]
        below = xt < vt
        at_v = xt == vt
        spare = m - np.count_nonzero(below, axis=1, keepdims=True)
        keep[tied] = below | (at_v & (np.cumsum(at_v, axis=1) <= spare))
    cols = np.nonzero(keep)[1].reshape(len(x), m)
    order = np.argsort(np.take_along_axis(x, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def match_groups(f: np.ndarray, grid: PatchGrid, k: int, window: int) -> np.ndarray:
    """:func:`match_blocks` for every anchor of ``grid`` at once.

    Returns a ``(G, k, 2)`` int array whose row ``n`` equals
    ``match_blocks(f, grid.anchors[n], grid.patch_size, k, window)``. The
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
    The k nearest are picked by a partition, and only those are sorted,
    one anchor row of the grid at a time, so the selection's temporaries
    are one row's size; each anchor's pick reads only its own distances.
    """
    f = check_array("cube", f, 3)
    rows, cols, bands = f.shape
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
    tr, tc = 2 * wr + 1, 2 * wc + 1
    t = np.arange(tc)
    planes = np.ascontiguousarray(f.transpose(2, 0, 1)).reshape(bands, rows * cols)
    mirror_cols = np.clip(ac[:, None] - t + wc, 0, cols - s)
    dist = np.full((len(ar), len(ac), tr, tc), np.inf)
    for dr in range(wr + 1):
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
        down = ar + dr <= rows - s
        dist[down, :, wr + dr] = _box_sums(sq, ar[down], s)[:, :, ac].transpose(1, 2, 0)
        if dr:
            up = ar >= dr
            # mirrored[a, t, n]: box of anchor row n at column mirror_cols[a, t]
            mirrored = _box_sums(sq, ar[up] - dr, s)[t, :, mirror_cols]
            dist[up, :, wr - dr] = mirrored.transpose(2, 0, 1)[..., ::-1]
    cand = ac[:, None] + t - wc
    dist.transpose(0, 2, 1, 3)[..., (cand < 0) | (cand > cols - s)] = np.inf
    dist = dist.reshape(len(ar), len(ac), tr * tc)
    dist[..., wr * tc + wc] = -1.0  # the anchor itself comes first
    pick = np.empty((len(ar), len(ac), k), dtype=np.intp)
    cyclic = np.arange(k)
    for row_dist, row_pick in zip(dist, pick):  # one anchor row of the grid at a time
        n_valid = np.count_nonzero(np.isfinite(row_dist), axis=1)
        order = _smallest_stable(row_dist, min(k, tr * tc))
        row_pick[:] = np.take_along_axis(order, cyclic % n_valid[:, None], axis=1)
    pick = pick.reshape(len(ar) * len(ac), k)
    members = np.empty(pick.shape + (2,), dtype=np.intp)
    members[..., 0] = np.repeat(ar, len(ac))[:, None] + pick // tc - wr
    members[..., 1] = np.tile(ac, len(ar))[:, None] + pick % tc - wc
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
    total = np.zeros(dims)
    counts = np.zeros(dims)
    bands = dims[2]
    for members, approx in groups:
        s = math.isqrt(approx.shape[0]) if approx.ndim == 3 else 0
        if approx.shape != (s * s, bands, len(members)):
            raise DimensionError(
                f"approximation shape {approx.shape} does not fit {len(members)} members"
                f" of {bands} bands"
            )
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


def _flat_indices(members: np.ndarray, s: int, dims: tuple[int, int, int]) -> np.ndarray:
    # Entry [n, i + s*j, lam, m] is the C-order flat index of voxel
    # (r + i, c + j, lam) of a ``dims`` cube, (r, c) = members[n, m].
    rows, cols, bands = dims
    s = check_int("patch size", s, 1, min(rows, cols))
    members = _check_indices("member anchors", members)
    if members.ndim != 3 or members.shape[2] != 2:
        raise DimensionError(f"members must have shape (g, k, 2), got {members.shape}")
    r, c = members[..., 0], members[..., 1]
    if members.size and (
        r.min() < 0 or r.max() > rows - s or c.min() < 0 or c.max() > cols - s
    ):
        raise UsageError(f"member anchors out of range for patch size {s} in {dims}")
    j, i = np.divmod(np.arange(s * s), s)
    block = ((i * cols + j) * bands)[:, None] + np.arange(bands)
    origin = (r * cols + c) * bands
    return origin[:, None, None, :] + block[None, :, :, None]


def gather_groups(
    f: np.ndarray, members: np.ndarray, s: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stack groups of member anchors into ``(g, s*s, L, k)`` tensors.

    ``members`` is a ``(g, k, 2)`` int array; ``stacked[n]`` equals
    ``build_group(f, members[n], s)``. Also returns the flat voxel
    indices of the stack, for :func:`scatter_groups`.
    """
    f = check_array("cube", f, 3, finite=False)
    idx = _flat_indices(members, s, f.shape)
    return f.ravel()[idx], idx


def scatter_groups(
    approx: np.ndarray, idx: np.ndarray, dims: tuple[int, int, int]
) -> np.ndarray:
    """Sum a stack of approximated groups back into a ``dims`` cube.

    ``idx`` comes from :func:`gather_groups`. This is the ``total`` of
    :func:`aggregate`, accumulated in index order by ``np.bincount``.
    """
    approx = check_array("approximation", approx, None, finite=False)
    idx = _check_indices("indices", idx)
    if approx.shape != idx.shape:
        raise DimensionError(f"approximation shape {approx.shape} != groups {idx.shape}")
    size = dims[0] * dims[1] * dims[2]
    # No scan of its own: bincount refuses a negative index, and its result
    # runs past the cube for an index too large, or fails to allocate for
    # one far too large. Only then are the indices scanned, so that a real
    # out-of-memory on a valid cube keeps its type.
    message = f"indices out of range for a cube of shape {tuple(dims)}"
    try:
        total = np.bincount(idx.ravel(), weights=approx.ravel(), minlength=size)
    except ValueError:
        raise UsageError(message) from None
    except MemoryError:
        if idx.size and idx.max() >= size:
            raise UsageError(message) from None
        raise
    if len(total) > size:
        raise UsageError(message)
    return total.reshape(dims)


def coverage_counts(
    members: np.ndarray, s: int, dims: tuple[int, int, int]
) -> np.ndarray:
    """Patches covering each voxel: the ``counts`` of :func:`aggregate`."""
    rows, cols, bands = dims
    plane = _flat_indices(members, s, (rows, cols, 1))
    counts = np.bincount(plane.ravel(), minlength=rows * cols).astype(np.float64)
    return np.repeat(counts.reshape(rows, cols, 1), bands, axis=2)
