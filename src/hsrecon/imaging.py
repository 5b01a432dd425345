"""Observation models of the coded-aperture snapshot imager.

A hyperspectral cube is a ``float64`` ndarray of shape ``(I, J, L)``
(rows, columns, bands). The forward model codes each band with a binary
mask, shifts band λ λ rows down and sums the bands onto a single
detector plane of shape ``(I + L - 1, J)``. The dual-camera mode adds an
uncoded panchromatic plane, the band sum of the cube.

``adjoint`` is the exact linear adjoint of ``forward``. ``ridge_factor``
and ``ridge_solve`` solve (Phi^T Phi + rho I) f = b exactly, the image
update of :mod:`hsrecon.solver`.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, UsageError, check_array, check_int, check_positive

CASSI = "cassi"
DCCHI = "dcchi"

__all__ = [
    "CASSI",
    "DCCHI",
    "SystemModel",
    "Measurement",
    "generate_mask",
    "cassi_forward",
    "pan_forward",
    "forward",
    "adjoint",
    "apply_normal_operator",
    "RidgeFactor",
    "ridge_factor",
    "ridge_solve",
]


@dataclass(frozen=True)
class SystemModel:
    """Immutable description of the optical system.

    Band λ lands λ detector rows down, and every band weighs 1 on both
    detectors.
    """

    mask: np.ndarray
    bands: int
    mode: str = CASSI

    def __post_init__(self):
        mask = np.ascontiguousarray(check_array("mask", self.mask, 2))
        if not mask.size:
            raise DimensionError(f"mask must be a non-empty 2D matrix, got shape {mask.shape}")
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise DataError("mask entries must be 0 or 1")
        bands = check_int("bands", self.bands, 1)
        if mask.size * bands * 8 > np.iinfo(np.intp).max:
            raise UsageError(f"bands={bands} is too large: NumPy cannot size the float64 cube")
        if not isinstance(self.mode, str) or self.mode not in (CASSI, DCCHI):
            raise UsageError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "bands", bands)

    @classmethod
    def default(cls, mask: np.ndarray, bands: int, mode: str = CASSI) -> "SystemModel":
        """The system of ``mask``, ``bands`` and ``mode``: ``cls(mask, bands, mode)``.

        Its one remaining caller is ``perfbench/job.py``; it goes when the
        benchmark builds its systems directly (ROADMAP item 2).
        """
        return cls(mask, bands, mode)

    @property
    def meas_rows(self) -> int:
        return self.mask.shape[0] + self.bands - 1


@dataclass(frozen=True)
class Measurement:
    """Detector planes: the coded snapshot plus the optional pan plane."""

    cassi: np.ndarray
    pan: np.ndarray | None = None


def generate_mask(rows: int, cols: int, p: float, seed: int) -> np.ndarray:
    """Seeded i.i.d. Bernoulli(p) binary mask as a 0/1 float matrix."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0.0 <= p <= 1.0:
        raise UsageError(f"p must be a real in [0, 1], got {p!r}")
    rows, cols = check_int("rows", rows, 1), check_int("cols", cols, 1)
    if rows * cols * 8 > np.iinfo(np.intp).max:
        raise UsageError(f"rows={rows}, cols={cols}: NumPy cannot size the float64 mask")
    rng = np.random.default_rng(check_int("seed", seed, 0))
    return (rng.random((rows, cols)) < p).astype(np.float64)


def _check_cube(f: np.ndarray, sys: SystemModel) -> np.ndarray:
    f = check_array("cube", f, None, finite=False)
    if f.shape != (*sys.mask.shape, sys.bands):
        raise DimensionError(f"cube shape {f.shape} != system {(*sys.mask.shape, sys.bands)}")
    return f


def cassi_forward(f: np.ndarray, sys: SystemModel) -> np.ndarray:
    """Coded, dispersed and band-integrated snapshot of the cube."""
    f = _check_cube(f, sys)
    rows, cols = sys.mask.shape
    out = np.zeros((sys.meas_rows, cols))
    with np.errstate(invalid="ignore"):  # 0 * inf gives NaN
        for lam in range(sys.bands):
            out[lam : lam + rows, :] += sys.mask * f[:, :, lam]
    return out


def pan_forward(f: np.ndarray, sys: SystemModel) -> np.ndarray:
    """Uncoded band sum onto the panchromatic detector."""
    if sys.mode != DCCHI:
        raise UsageError("pan_forward requires a dual-camera system")
    f = _check_cube(f, sys)
    with np.errstate(invalid="ignore"):  # inf + -inf gives NaN
        return f @ np.ones(sys.bands)  # not f.sum(axis=2), which adds in another order


def forward(f: np.ndarray, sys: SystemModel) -> Measurement:
    """Full observation: coded plane, plus the pan plane in dual mode."""
    cassi = cassi_forward(f, sys)
    pan = pan_forward(f, sys) if sys.mode == DCCHI else None
    return Measurement(cassi=cassi, pan=pan)


def adjoint(y: Measurement, sys: SystemModel) -> np.ndarray:
    """Exact adjoint of :func:`forward` applied to a measurement."""
    rows, cols = sys.mask.shape
    yc = check_array("measurement", y.cassi, None, finite=False)
    if yc.shape != (sys.meas_rows, cols):
        raise DimensionError(f"measurement shape {yc.shape} != system {(sys.meas_rows, cols)}")
    with np.errstate(invalid="ignore"):  # 0 * inf gives NaN
        f = _cassi_adjoint(yc, sys)
        if sys.mode == DCCHI:
            if y.pan is None:
                raise DimensionError("dual-camera system requires a pan plane")
            yp = check_array("pan plane", y.pan, None, finite=False)
            if yp.shape != (rows, cols):
                raise DimensionError(f"pan plane shape {yp.shape} != {(rows, cols)}")
            f += yp[:, :, None]
    return f


def _cassi_adjoint(yc: np.ndarray, sys: SystemModel) -> np.ndarray:
    rows, cols = sys.mask.shape
    f = np.zeros((rows, cols, sys.bands))
    for lam in range(sys.bands):
        f[:, :, lam] = sys.mask * yc[lam : lam + rows, :]
    return f


def apply_normal_operator(f: np.ndarray, sys: SystemModel) -> np.ndarray:
    """Adjoint composed with forward, fused into one call."""
    return adjoint(forward(f, sys), sys)


@dataclass(frozen=True)
class RidgeFactor:
    """rho I + Phi Phi^T of one system, factored by :func:`ridge_factor`.

    ``coded``: the diagonal of its coded block, shape ``(meas_rows, cols)``.
    Dual-camera mode only: ``pan_diag``, the pan block's constant diagonal,
    and ``chol``, the banded Cholesky factor L of the Schur complement per
    detector column j: ``chol[c, t, j] = L[c + t, c]`` for ``t < bands``,
    plus ``bands - 1`` zero rows so every band slice has full length.
    """

    sys: SystemModel
    rho: float
    coded: np.ndarray
    chol: np.ndarray | None = None
    pan_diag: float = 0.0


def ridge_factor(sys: SystemModel, rho: float) -> RidgeFactor:
    """Factor rho I + Phi Phi^T for solving (Phi^T Phi + rho I) f = b.

    By Woodbury, f = (b - Phi^T (rho I + Phi Phi^T)^{-1} Phi b) / rho.
    Phi Phi^T is diagonal on the coded plane: each detector pixel counts
    the mask over the bands that land on it. In dual-camera mode, Phi =
    [C; P] adds the pan block P P^T = bands I and the cross term B = C P^T,
    which joins detector row i + d to pan row i of the same column with
    weight mask[i], d < bands. Eliminating the pan block leaves the Schur
    complement diag(coded) - B B^T / pan_diag, banded with half-bandwidth
    bands - 1 in each column, which a right-looking banded Cholesky factors
    for all columns at once.
    """
    rho = check_positive("rho", rho)
    rows, cols = sys.mask.shape
    cube = np.broadcast_to(sys.mask[:, :, None], (rows, cols, sys.bands))  # a view
    coded = rho + cassi_forward(cube, sys)
    if sys.mode == CASSI:
        return RidgeFactor(sys=sys, rho=rho, coded=coded)
    pan_diag = rho + sys.bands
    w = sys.bands - 1
    r = sys.meas_rows
    chol = np.zeros((r + w, w + 1, cols))
    chol[:r, 0] = coded
    # (B B^T)[i + d + t, i + d] = mask[i], for d + t <= w
    cross = sys.mask[:, None, :] / pan_diag
    for d in range(w + 1):
        chol[d : d + rows, : w + 1 - d] -= cross
    # Column c of L is column c of the band over its square-rooted diagonal;
    # then S[c + t + u, c + t] -= L[c + t + u, c] L[c + t, c] for t >= 1,
    # u >= 0, kept at chol[c + t, u].
    for c in range(r):
        col = chol[c]
        np.sqrt(col[0], out=col[0])
        col[1:] /= col[0]
        for t in range(1, w + 1):
            chol[c + t, : w + 1 - t] -= col[t] * col[t:]
    return RidgeFactor(sys=sys, rho=rho, coded=coded, chol=chol, pan_diag=pan_diag)


def ridge_solve(fac: RidgeFactor, b: np.ndarray) -> np.ndarray:
    """The exact solution of (Phi^T Phi + rho I) f = b for ``fac``'s system and rho."""
    b = check_array("right-hand side", b, 3)
    sys = fac.sys
    if fac.chol is None:
        u = cassi_forward(b, sys) / fac.coded
        return (b - _cassi_adjoint(u, sys)) / fac.rho
    # With Phi b = (a, p), the pan block gives v = (p - B^T u) / pan_diag
    # and leaves S u = a - B p / pan_diag = C (b - P^T p / pan_diag).
    p = pan_forward(b, sys)
    chol = fac.chol
    r = sys.meas_rows
    w = chol.shape[1] - 1
    u = np.zeros((r + w, b.shape[1]))
    u[:r] = cassi_forward(b - p[:, :, None] * (1.0 / fac.pan_diag), sys)
    for c in range(r):  # L z = rhs
        u[c] /= chol[c, 0]
        u[c + 1 : c + w + 1] -= chol[c, 1:] * u[c]
    for c in range(r - 1, -1, -1):  # L^T u = z
        u[c] -= np.einsum("tj,tj->j", chol[c, 1:], u[c + 1 : c + w + 1])
        u[c] /= chol[c, 0]
    ctu = _cassi_adjoint(u[:r], sys)
    v = (p - pan_forward(ctu, sys)) / fac.pan_diag
    return (b - ctu - v[:, :, None]) / fac.rho
