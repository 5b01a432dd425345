"""Nonlocal patch grouping over a hyperspectral cube.

Full-band s x s patches are compared by squared Euclidean distance over
all bands, grouped with their nearest neighbors inside a local window, and
stacked into an ``(s*s, L, k)`` tensor: ``stacked[:, lam, m]`` is the
column-major vectorization of member ``m``'s spatial block in band
``lam``.

The solver works on groups in batches. ``match_groups`` matches every
anchor of a grid in one pass over the window's offsets and returns a
``(g, k, 2)`` array of member anchors; ``gather_groups`` stacks it into
``(g, s*s, L, k)`` with one fancy index into the flattened cube and
returns those flat indices; ``scatter_groups`` adds approximated groups
back along the same indices with ``np.bincount``; ``coverage_counts``
counts the patches covering each voxel. ``match_blocks``,
``build_group`` and ``aggregate`` do the same one group at a time and
stay as the reference the batched path is tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, DimensionError, UsageError

# Float64 bytes of squared differences computed per block in match_groups;
# blocks much past the L2 cache run slower.
MATCH_BLOCK_BYTES = 1 << 18

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
    if s < 1 or s > min(rows, cols):
        raise UsageError(f"patch size {s} invalid for {rows}x{cols} plane")
    if step < 1:
        raise UsageError(f"step must be >= 1, got {step}")
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
    f = np.asarray(f, dtype=np.float64)
    rows, cols, _ = f.shape
    ar, ac = anchor
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if window < 0:
        raise UsageError(f"window must be >= 0, got {window}")
    if not (0 <= ar <= rows - s and 0 <= ac <= cols - s):
        raise UsageError(f"anchor {anchor} out of range for patch size {s}")
    view = sliding_window_view(f, (s, s), axis=(0, 1))  # (R, C, L, s, s)
    r0, r1 = max(0, ar - window), min(rows - s, ar + window)
    c0, c1 = max(0, ac - window), min(cols - s, ac + window)
    ref = view[ar, ac]
    diff = view[r0 : r1 + 1, c0 : c1 + 1] - ref
    dist = np.einsum("rclij,rclij->rc", diff, diff)
    coords = [
        (r, c)
        for r in range(r0, r1 + 1)
        for c in range(c0, c1 + 1)
        if (r, c) != (ar, ac)
    ]
    dvals = np.array([dist[r - r0, c - c0] for (r, c) in coords])
    order = np.argsort(dvals, kind="stable")
    members = [anchor] + [coords[i] for i in order[: k - 1]]
    if len(members) < k:
        base = list(members)
        while len(members) < k:
            members.append(base[len(members) % len(base)])
    return members


def _box_sums(sq: np.ndarray, ys: np.ndarray, s: int) -> np.ndarray:
    # Sum of sq[y + i, x + j] over i, j < s for each y in ys and every x,
    # added term by term (no running sums), so equal inputs give equal sums.
    rowsum = sq[ys]
    for i in range(1, s):
        rowsum += sq[ys + i]
    n = rowsum.shape[1] - s + 1
    box = rowsum[:, :n].copy()
    for j in range(1, s):
        box += rowsum[:, j : j + n]
    return box


def match_groups(f: np.ndarray, grid: PatchGrid, k: int, window: int) -> np.ndarray:
    """:func:`match_blocks` for every anchor of ``grid`` at once.

    Returns a ``(G, k, 2)`` int array whose row ``n`` equals
    ``match_blocks(f, grid.anchors[n], grid.patch_size, k, window)``. For each row
    offset ``dr >= 0`` of the window, the band-summed squared difference
    between every pixel and the pixels ``dr`` rows below it at every
    column offset is computed in cache-sized blocks of rows. Its s x s box
    sum at position ``a`` is the distance from ``a`` to ``a + (dr, dc)``,
    which gives each anchor its candidate at ``(dr, dc)`` and, read at
    ``anchor - (dr, dc)``, its candidate at ``(-dr, -dc)``. The
    distances are sums of squared differences, never
    ``|a|^2 + |b|^2 - 2ab``, so identical patches are at distance 0 and
    equal distances stay equal.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 3:
        raise DimensionError(f"cube must be 3-D, got shape {f.shape}")
    rows, cols, bands = f.shape
    s = grid.patch_size
    if not 1 <= s <= min(rows, cols):
        raise UsageError(f"patch size {s} invalid for {rows}x{cols} plane")
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if window < 0:
        raise UsageError(f"window must be >= 0, got {window}")
    g = len(grid.rows) * len(grid.cols)
    if g * k * 2 * np.dtype(np.intp).itemsize > np.iinfo(np.intp).max:
        raise UsageError(f"k={k} is too large: NumPy cannot size a ({g}, k, 2) array")
    # Checked as Python ints: an anchor far out of range may not fit in intp.
    limits = ((rows - s, grid.rows), (cols - s, grid.cols))
    if not all(0 <= a <= hi for hi, axis in limits for a in axis):
        raise UsageError(f"grid anchors out of range for patch size {s} in {f.shape}")
    ar = np.asarray(grid.rows, dtype=np.intp)
    ac = np.asarray(grid.cols, dtype=np.intp)
    if not np.all(np.isfinite(f)):
        raise DataError("cube contains non-finite values")
    wr, wc = min(window, rows - s), min(window, cols - s)
    tr, tc = 2 * wr + 1, 2 * wc + 1
    t = np.arange(tc)
    # Channel-first copy with wc zero columns on each side; shifted[l, y, x, t]
    # is pixel (y, x + t - wc) of band l.
    padded = np.zeros((bands, rows, cols + 2 * wc))
    padded[:, :, wc : wc + cols] = f.transpose(2, 0, 1)
    shifted = sliding_window_view(padded, tc, axis=2)
    block = max(1, MATCH_BLOCK_BYTES // (8 * bands * cols * tc))
    mirror_cols = np.clip(ac[:, None] - t + wc, 0, cols - s)
    dist = np.full((len(ar), len(ac), tr, tc), np.inf)
    for dr in range(wr + 1):
        # sq[y, x, t]: squared distance over bands of pixel (y, x) to pixel
        # (y + dr, x + t - wc)
        sq = np.empty((rows - dr, cols, tc))
        for y0 in range(0, rows - dr, block):
            y1 = min(rows - dr, y0 + block)
            diff = padded[:, y0:y1, wc : wc + cols, None] - shifted[:, y0 + dr : y1 + dr]
            diff *= diff
            np.sum(diff, axis=0, out=sq[y0:y1])
        down = ar + dr <= rows - s
        dist[down, :, wr + dr] = _box_sums(sq, ar[down], s)[:, ac]
        if dr:
            up = ar >= dr
            mirrored = _box_sums(sq, ar[up] - dr, s)[:, mirror_cols, t]
            dist[up, :, wr - dr] = mirrored[..., ::-1]
    cand = ac[:, None] + t - wc
    dist.transpose(0, 2, 1, 3)[..., (cand < 0) | (cand > cols - s)] = np.inf
    dist = dist.reshape(len(ar) * len(ac), tr * tc)
    dist[:, wr * tc + wc] = -1.0  # the anchor itself comes first
    n_valid = np.isfinite(dist).sum(axis=1)
    order = np.argsort(dist, axis=1, kind="stable")
    pick = np.take_along_axis(order, np.arange(k) % n_valid[:, None], axis=1)
    members = np.empty(pick.shape + (2,), dtype=np.intp)
    members[..., 0] = np.repeat(ar, len(ac))[:, None] + pick // tc - wr
    members[..., 1] = np.tile(ac, len(ar))[:, None] + pick % tc - wc
    return members


def build_group(f: np.ndarray, members: list[tuple[int, int]], s: int) -> np.ndarray:
    """Stack the members' full-band blocks into an (s*s, L, k) tensor."""
    f = np.asarray(f, dtype=np.float64)
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


def _flat_indices(members: np.ndarray, s: int, dims: tuple[int, int, int]) -> np.ndarray:
    # Entry [n, i + s*j, lam, m] is the C-order flat index of voxel
    # (r + i, c + j, lam) of a ``dims`` cube, (r, c) = members[n, m].
    rows, cols, bands = dims
    members = np.asarray(members, dtype=np.intp)
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
    f = np.asarray(f, dtype=np.float64)
    idx = _flat_indices(members, s, f.shape)
    return f.ravel()[idx], idx


def scatter_groups(
    approx: np.ndarray, idx: np.ndarray, dims: tuple[int, int, int]
) -> np.ndarray:
    """Sum a stack of approximated groups back into a ``dims`` cube.

    ``idx`` comes from :func:`gather_groups`. This is the ``total`` of
    :func:`aggregate`, accumulated in index order by ``np.bincount``.
    """
    approx = np.asarray(approx, dtype=np.float64)
    if approx.shape != idx.shape:
        raise DimensionError(f"approximation shape {approx.shape} != groups {idx.shape}")
    size = dims[0] * dims[1] * dims[2]
    return np.bincount(idx.ravel(), weights=approx.ravel(), minlength=size).reshape(dims)


def coverage_counts(
    members: np.ndarray, s: int, dims: tuple[int, int, int]
) -> np.ndarray:
    """Patches covering each voxel: the ``counts`` of :func:`aggregate`."""
    rows, cols, bands = dims
    plane = _flat_indices(members, s, (rows, cols, 1))
    counts = np.bincount(plane.ravel(), minlength=rows * cols).astype(np.float64)
    return np.repeat(counts.reshape(rows, cols, 1), bands, axis=2)
