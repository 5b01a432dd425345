"""Dense 3-order tensor algebra: unfolding, n-mode products and HOSVD.

A tensor is a C-contiguous ``float64`` ndarray of shape ``(d1, d2, d3)``
(mode-1 index slowest). Modes are numbered 1..3 throughout, matching the
usual multilinear-algebra convention.

``hosvd_batch`` and ``tucker_reconstruct_batch`` do the same work for a
stack of equally shaped tensors ``(g, d1, d2, d3)`` with batched matrix
products and one batched symmetric eigensolve per mode; the solver's
group step runs on them. ``hosvd`` and ``tucker_reconstruct`` stay as the
per-tensor reference they are tested against.

Both batched functions apply the three mode products in the order with
the fewest multiplies, worked out from the shapes alone (Kolda and Bader,
SIAM Review 2009): for a thin core block such as (25, 1, 25) of a
(25, 31, 45) group, mode 2 goes first when the core is computed and last
when the group is rebuilt. A tie keeps the order 1, 2, 3, so square
factors (every full-rank HOSVD of a group whose modes each fit in the
product of the other two) give that order's bits.

Each factor column of an HOSVD is unique only up to sign, and neither
fixes it: ``hosvd`` keeps the signs of LAPACK's ``svd``, ``hosvd_batch``
those of its ``eigh``. Flipping
column ``j`` of ``U_n`` negates exactly the core slice ``j`` along mode
``n`` (IEEE rounding is sign-symmetric). The solver reads only core
magnitudes, shrinks with an odd soft threshold and rebuilds the group from
factors and core, where the two negations cancel; ``spectrum-diag`` prints
sorted magnitudes. Both are bitwise the same for any signs.

Unfolding layout contract: for mode ``n`` the columns of the unfolding are
the mode-``n`` fibers, ordered cyclically over the remaining modes
``n+1, n+2`` (wrapping), with the index of mode ``n+2`` varying fastest.
``fold`` is the exact inverse of ``unfold`` under this ordering.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, UsageError, check_array, check_int

__all__ = [
    "TuckerFactors",
    "unfold",
    "fold",
    "mode_n_product",
    "hosvd",
    "tucker_reconstruct",
    "hosvd_batch",
    "tucker_reconstruct_batch",
]


@dataclass(frozen=True)
class TuckerFactors:
    """Core tensor plus the three orthonormal-column factor matrices."""

    core: np.ndarray
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Matricize ``t`` along ``mode`` (fibers as columns, cyclic ordering)."""
    a = check_int("mode", mode, 1, 3) - 1
    t = check_array("tensor", t, 3, finite=False)
    perm = (a, (a + 1) % 3, (a + 2) % 3)
    return t.transpose(perm).reshape(t.shape[a], -1)


def fold(m: np.ndarray, mode: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`unfold` with the same mode and target dims."""
    a = check_int("mode", mode, 1, 3) - 1
    m = check_array("matrix", m, None, finite=False)
    perm = (a, (a + 1) % 3, (a + 2) % 3)
    shape = tuple(dims[p] for p in perm)
    if m.shape != (shape[0], shape[1] * shape[2]):
        raise DimensionError(
            f"matrix shape {m.shape} does not match mode-{mode} unfolding of {dims}"
        )
    inv = np.argsort(perm)
    return m.reshape(shape).transpose(inv)


def mode_n_product(t: np.ndarray, a: np.ndarray, mode: int) -> np.ndarray:
    """Multiply tensor ``t`` by matrix ``a`` along ``mode``."""
    axis = check_int("mode", mode, 1, 3) - 1
    t = check_array("tensor", t, 3, finite=False)
    a = check_array("matrix", a, 2, finite=False)
    if a.shape[1] != t.shape[axis]:
        raise DimensionError(
            f"matrix shape {a.shape} incompatible with mode-{mode} size {t.shape[axis]}"
        )
    dims = list(t.shape)
    dims[axis] = a.shape[0]
    with np.errstate(invalid="ignore"):  # 0 * inf gives NaN
        return fold(a @ unfold(t, mode), mode, tuple(dims))


def hosvd(t: np.ndarray) -> TuckerFactors:
    """Full higher-order SVD of a 3-order tensor.

    Factor ``U_n`` holds the left singular vectors of the mode-``n``
    unfolding; the core is ``t`` contracted with every ``U_n`` transposed.
    """
    t = check_array("tensor", t, 3)
    if 0 in t.shape:
        raise DimensionError(f"tensor modes must be non-empty, got shape {t.shape}")
    factors = [np.linalg.svd(unfold(t, m), full_matrices=False)[0] for m in (1, 2, 3)]
    core = t
    for mode, u in zip((1, 2, 3), factors):
        core = mode_n_product(core, u.T, mode)
    return TuckerFactors(core=core, factors=(factors[0], factors[1], factors[2]))


def tucker_reconstruct(f: TuckerFactors) -> np.ndarray:
    """Contract the core with the factors, modes 1 then 2 then 3."""
    if len(f.factors) != 3:
        raise DimensionError(f"expected three factors, got {len(f.factors)}")
    t = f.core
    for mode, u in zip((1, 2, 3), f.factors):
        t = mode_n_product(t, u, mode)
    return t


def _mode_products_batch(t: np.ndarray, mats, out: np.ndarray | None = None) -> np.ndarray:
    # t: (g, d1, d2, d3); mats[n]: (g, r_n, d_n). The three mode products in
    # the order with the fewest multiplies, 1-2-3 on a tie; the last one is
    # written into out, a C-contiguous (g, r1, r2, r3) array, if given. Only
    # the first product reads t, so out may share t's memory.
    dims, ranks = t.shape[1:], [a.shape[1] for a in mats]

    def multiplies(order):
        shape, total = list(dims), 0
        for n in order:
            shape[n] = ranks[n]
            total += dims[n] * math.prod(shape)
        return total

    def into(y, *shape):
        return None if y is None else y.reshape(shape)

    x = t
    order = min(itertools.permutations(range(3)), key=multiplies)
    for n in order:
        a, y = mats[n], out if n == order[-1] else None
        g, e1, e2, e3 = x.shape
        r = a.shape[1]
        if n == 0:
            x = np.matmul(a, x.reshape(g, e1, e2 * e3), out=into(y, g, r, e2 * e3))
            x = x.reshape(g, r, e2, e3)
        elif n == 1:
            x = np.matmul(a[:, None], x, out=y)
        else:
            y = into(y, g, e1 * e2, r)
            x = np.matmul(x.reshape(g, e1 * e2, e3), a.transpose(0, 2, 1), out=y)
            x = x.reshape(g, e1, e2, r)
    return x


def _full_ranks(dims) -> list[int]:
    # The width of each mode's reduced SVD: min(d_n, d1*d2*d3 / d_n).
    size = math.prod(dims)
    return [min(d, size // d) for d in dims]


def _hosvd(t: np.ndarray, ranks) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    # hosvd_batch's core and factors, for a checked stack and checked ranks
    # (None: the full widths).
    g, d1, d2, d3 = t.shape
    m1 = t.reshape(g, d1, d2 * d3)
    m3 = t.reshape(g, d1 * d2, d3)
    grams = (
        m1 @ m1.transpose(0, 2, 1),
        (t @ t.transpose(0, 1, 3, 2)).sum(axis=1),
        m3.transpose(0, 2, 1) @ m3,
    )
    factors = []
    for gram, r in zip(grams, _full_ranks(t.shape[1:]) if ranks is None else ranks):
        _, u = np.linalg.eigh(gram)
        # Descending order, as a contiguous copy: a reversed view's negative
        # strides would keep matmul off BLAS.
        factors.append(np.ascontiguousarray(u[..., ::-1][..., :r]))
    core = _mode_products_batch(t, [u.transpose(0, 2, 1) for u in factors])
    return core, (factors[0], factors[1], factors[2])


def hosvd_batch(t: np.ndarray, ranks: tuple[int, int, int] | None = None) -> TuckerFactors:
    """HOSVD of every tensor in a ``(g, d1, d2, d3)`` stack.

    Factor ``U_n`` of tensor ``i`` is ``factors[n-1][i]``: the leading
    eigenvectors of the mode-``n`` Gram matrix, in descending eigenvalue
    order, truncated to ``min(d_n, d1*d2*d3 / d_n)`` columns (the width of
    the reduced SVD), with the column signs LAPACK returns. The core has
    shape ``(g, r1, r2, r3)``. Per tensor this equals :func:`hosvd` up to
    rounding, the sign of each factor column and its core slice, and the
    choice of basis for repeated singular values.

    ``ranks`` keeps the leading ``ranks[n-1]`` columns of ``U_n`` (0 up
    to the full width) and computes only that leading block of the core,
    for a caller that knows the rest is of no use. The eigensolves are the
    same: the factors are the full ones' leading columns, bit for bit, and
    the block is the full core's up to rounding.
    """
    t = check_array("tensor stack", t, 4)
    if 0 in t.shape[1:]:  # an empty stack is fine
        raise DimensionError(f"tensor modes must be non-empty, got shape {t.shape}")
    full = _full_ranks(t.shape[1:])
    ranks = ranks.tolist() if isinstance(ranks, np.ndarray) else ranks  # an int array: its ints
    if ranks is None:
        ranks = full
    elif not (isinstance(ranks, (tuple, list)) and len(ranks) == 3):
        raise UsageError(f"ranks must be three integers, got {ranks!r}")
    else:
        ranks = [check_int("rank", r, 0, f) for r, f in zip(ranks, full)]
    return TuckerFactors(*_hosvd(t, ranks))


def tucker_reconstruct_batch(f: TuckerFactors) -> np.ndarray:
    """:func:`tucker_reconstruct` of every core in a ``(g, r1, r2, r3)`` stack."""
    core = check_array("core stack", f.core, 4, finite=False)
    factors = [check_array("factor stack", u, 3, finite=False) for u in f.factors]
    if len(factors) != 3 or any(
        u.shape[0] != core.shape[0] or u.shape[2] != r for u, r in zip(factors, core.shape[1:])
    ):
        raise DimensionError(
            f"factor shapes {[u.shape for u in factors]} do not fit core {core.shape}"
        )
    with np.errstate(invalid="ignore"):  # 0 * inf gives NaN
        return _mode_products_batch(core, factors)
