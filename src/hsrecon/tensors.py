"""Dense 3-order tensor algebra: unfolding, n-mode products and HOSVD.

A tensor is a C-contiguous ``float64`` ndarray of shape ``(d1, d2, d3)``
(mode-1 index slowest). Modes are numbered 1..3 throughout, matching the
usual multilinear-algebra convention.

``hosvd_batch`` and ``tucker_reconstruct_batch`` do the same work for a
stack of equally shaped tensors ``(g, d1, d2, d3)`` with batched matrix
products and one batched symmetric eigensolve per mode; the solver's
group step runs on them. ``hosvd`` and ``tucker_reconstruct`` stay as the
per-tensor reference they are tested against. Each factor column of an
HOSVD is unique only up to sign, and neither fixes it: ``hosvd`` keeps the
signs of LAPACK's ``svd``, ``hosvd_batch`` those of its ``eigh``. Flipping
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

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, UsageError

__all__ = [
    "TuckerFactors",
    "frobenius_norm",
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


def _check_mode(mode: int) -> int:
    if mode not in (1, 2, 3):
        raise UsageError(f"mode must be 1, 2 or 3, got {mode!r}")
    return mode - 1


def frobenius_norm(t: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(np.asarray(t, dtype=np.float64).ravel()))


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Matricize ``t`` along ``mode`` (fibers as columns, cyclic ordering)."""
    a = _check_mode(mode)
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 3:
        raise DimensionError(f"expected a 3-order tensor, got ndim={t.ndim}")
    perm = (a, (a + 1) % 3, (a + 2) % 3)
    return t.transpose(perm).reshape(t.shape[a], -1)


def fold(m: np.ndarray, mode: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`unfold` with the same mode and target dims."""
    a = _check_mode(mode)
    m = np.asarray(m, dtype=np.float64)
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
    axis = _check_mode(mode)
    t = np.asarray(t, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != t.shape[axis]:
        raise DimensionError(
            f"matrix shape {a.shape} incompatible with mode-{mode} size {t.shape[axis]}"
        )
    dims = list(t.shape)
    dims[axis] = a.shape[0]
    return fold(a @ unfold(t, mode), mode, tuple(dims))


def _checked_tensors(t: np.ndarray, ndim: int, what: str) -> np.ndarray:
    # HOSVD input: ``ndim`` axes, finite, and no zero-length tensor mode (the
    # last three axes); an empty stack is fine.
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != ndim:
        raise DimensionError(f"expected {what}, got ndim={t.ndim}")
    if 0 in t.shape[-3:]:
        raise DimensionError(f"tensor modes must be non-empty, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise DataError("tensor contains non-finite entries")
    return t


def hosvd(t: np.ndarray) -> TuckerFactors:
    """Full higher-order SVD of a 3-order tensor.

    Factor ``U_n`` holds the left singular vectors of the mode-``n``
    unfolding; the core is ``t`` contracted with every ``U_n`` transposed.
    """
    t = _checked_tensors(t, 3, "a 3-order tensor")
    factors = [np.linalg.svd(unfold(t, m), full_matrices=False)[0] for m in (1, 2, 3)]
    core = t
    for mode, u in zip((1, 2, 3), factors):
        core = mode_n_product(core, u.T, mode)
    return TuckerFactors(core=core, factors=(factors[0], factors[1], factors[2]))


def tucker_reconstruct(f: TuckerFactors) -> np.ndarray:
    """Contract the core with the factors, modes 1 then 2 then 3."""
    t = f.core
    for mode, u in zip((1, 2, 3), f.factors):
        t = mode_n_product(t, u, mode)
    return t


def _mode_products_batch(t: np.ndarray, mats) -> np.ndarray:
    # t: (g, d1, d2, d3); mats[n]: (g, r_n, d_n). Modes 1, 2, 3 in turn.
    a1, a2, a3 = mats
    g, d1, d2, d3 = t.shape
    x = (a1 @ t.reshape(g, d1, d2 * d3)).reshape(g, a1.shape[1], d2, d3)
    x = a2[:, None] @ x
    r1, r2 = x.shape[1], x.shape[2]
    x = x.reshape(g, r1 * r2, d3) @ a3.transpose(0, 2, 1)
    return x.reshape(g, r1, r2, a3.shape[1])


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
    t = _checked_tensors(t, 4, "a stack of 3-order tensors")
    g, d1, d2, d3 = t.shape
    size = d1 * d2 * d3
    full = [min(d, size // d) for d in (d1, d2, d3)]
    if ranks is None:
        ranks = full
    elif not (
        isinstance(ranks, (tuple, list))
        and len(ranks) == 3
        and all(isinstance(r, (int, np.integer)) and 0 <= r <= f for r, f in zip(ranks, full))
    ):
        raise UsageError(f"ranks must lie between 0 and {tuple(full)}, got {ranks!r}")
    m1 = t.reshape(g, d1, d2 * d3)
    m3 = t.reshape(g, d1 * d2, d3)
    grams = (
        m1 @ m1.transpose(0, 2, 1),
        (t @ t.transpose(0, 1, 3, 2)).sum(axis=1),
        m3.transpose(0, 2, 1) @ m3,
    )
    factors = []
    for gram, r in zip(grams, ranks):
        _, u = np.linalg.eigh(gram)
        # Descending order, as a contiguous copy: a reversed view's negative
        # strides would keep matmul off BLAS.
        factors.append(np.ascontiguousarray(u[..., ::-1][..., :r]))
    core = _mode_products_batch(t, [u.transpose(0, 2, 1) for u in factors])
    return TuckerFactors(core=core, factors=(factors[0], factors[1], factors[2]))


def tucker_reconstruct_batch(f: TuckerFactors) -> np.ndarray:
    """:func:`tucker_reconstruct` of every core in a ``(g, r1, r2, r3)`` stack."""
    core = np.asarray(f.core, dtype=np.float64)
    if core.ndim != 4 or len(f.factors) != 3 or any(
        u.ndim != 3 or u.shape[0] != core.shape[0] or u.shape[2] != r
        for u, r in zip(f.factors, core.shape[1:])
    ):
        raise DimensionError(
            f"factor shapes {[u.shape for u in f.factors]} do not fit core {core.shape}"
        )
    return _mode_products_batch(core, f.factors)
