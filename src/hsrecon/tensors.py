"""Dense 3-order tensor algebra: unfolding, n-mode products and HOSVD.

A tensor is a C-contiguous ``float64`` ndarray of shape ``(d1, d2, d3)``
(mode-1 index slowest). Modes are numbered 1..3 throughout, matching the
usual multilinear-algebra convention.

The public functions work on one tensor. The solver's group step runs
private kernels on a stack of equally shaped tensors ``(g, d1, d2, d3)``:
``_hosvd``, the HOSVD from batched matrix products and one batched
symmetric eigensolve per mode, which computes only the leading core block
that a rule on the eigenvalues picks, and ``_mode_products_batch``, which
rebuilds the groups. The tests hold each against ``hosvd`` and
``tucker_reconstruct``.

``_mode_products_batch`` applies the three mode products in the order with
the fewest multiplies, worked out from the shapes alone (Kolda and Bader,
SIAM Review 2009): for a thin core block such as (25, 1, 25) of a
(25, 31, 45) group, mode 2 goes first when the core is computed and last
when the group is rebuilt. A tie keeps the order 1, 2, 3, so square
factors (every full-rank HOSVD of a group whose modes each fit in the
product of the other two) give that order's bits.

Each factor column of an HOSVD is unique only up to sign, and neither
fixes it: ``hosvd`` keeps the signs of LAPACK's ``svd``, ``_hosvd`` those
of its ``eigh``. Flipping column ``j`` of ``U_n`` negates exactly the core
slice ``j`` along mode ``n`` (IEEE rounding is sign-symmetric). The solver reads only core
magnitudes, shrinks with an odd soft threshold and rebuilds the group from
factors and core, where the two negations cancel, so it is bitwise the
same for any signs; so are ``spectrum-diag``'s sorted magnitudes.

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

from .errors import DimensionError, check_array, check_int, check_sizes

__all__ = [
    "TuckerFactors",
    "unfold",
    "fold",
    "mode_n_product",
    "hosvd",
    "tucker_reconstruct",
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
    # Sizes, not -1: a zero-length mode n leaves -1 undefined.
    return t.transpose(perm).reshape(t.shape[a], t.shape[perm[1]] * t.shape[perm[2]])


def fold(m: np.ndarray, mode: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`unfold` with the same mode and target dims."""
    a = check_int("mode", mode, 1, 3) - 1
    m = check_array("matrix", m, None, finite=False)
    dims = check_sizes("dims", dims, 3, 0)
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


def _hosvd(t: np.ndarray, widths) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    # The HOSVD of each tensor of a finite (g, d1, d2, d3) stack with
    # non-empty modes: factor U_n of tensor i, factors[n-1][i], holds the
    # eigenvectors of its mode-n Gram matrix in descending eigenvalue order,
    # with the signs LAPACK returns, cut to the leading r_n columns, and the
    # core is cut to that block. (r1, r2, r3) = widths(lams): lams[n-1] holds
    # the (g, f_n) eigenvalues of the mode-n Gram matrices, sigma_j^2 in
    # descending order, f_n = min(d_n, d1*d2*d3 / d_n) the reduced SVD's
    # width, and r_n is 0 up to f_n. At full width this is hosvd up to
    # rounding, column signs and the basis of repeated singular values. The
    # cut factors are the full ones' leading columns, bit for bit, and the
    # block is the full core's up to rounding.
    g, d1, d2, d3 = t.shape
    m1 = t.reshape(g, d1, d2 * d3)
    m3 = t.reshape(g, d1 * d2, d3)
    grams = (
        m1 @ m1.transpose(0, 2, 1),
        (t @ t.transpose(0, 1, 3, 2)).sum(axis=1),
        m3.transpose(0, 2, 1) @ m3,
    )
    lams, us = zip(*map(np.linalg.eigh, grams))  # ascending
    full = [min(d, d1 * d2 * d3 // d) for d in (d1, d2, d3)]
    ranks = widths([lam[:, ::-1][:, :f] for lam, f in zip(lams, full)])
    # Descending, as copies: a reversed view's strides would keep matmul off BLAS.
    factors = [np.ascontiguousarray(u[..., ::-1][..., :r]) for u, r in zip(us, ranks)]
    core = _mode_products_batch(t, [u.transpose(0, 2, 1) for u in factors])
    return core, (factors[0], factors[1], factors[2])
