"""Observation models of the coded-aperture snapshot imager.

A hyperspectral cube is a ``float64`` ndarray of shape ``(I, J, L)``
(rows, columns, bands). The forward model codes each band with a binary
mask, shifts band λ λ rows down and sums the bands onto a single
detector plane of shape ``(I + L - 1, J)``. The dual-camera mode adds an
uncoded panchromatic plane, the band sum of the cube.

``adjoint`` is the exact linear adjoint of ``forward``. ``ridge_factor``
and ``ridge_project`` give the image update of :mod:`hsrecon.solver`
exactly, in projection form, dividing by the factor, never by rho.
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
    "ridge_project",
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
        """``cls(mask, bands, mode)``, kept for ``perfbench/job.py`` until ROADMAP item 2."""
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


def _checked(name: str, value, shape: tuple[int, ...], finite: bool = False) -> np.ndarray:
    a = check_array(name, value, None, finite=finite)
    if a.shape != shape:
        raise DimensionError(f"{name} shape {a.shape} != system {shape}")
    return a


def cassi_forward(f: np.ndarray, sys: SystemModel) -> np.ndarray:
    """Coded, dispersed and band-integrated snapshot of the cube."""
    f = _checked("cube", f, (*sys.mask.shape, sys.bands))
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
    f = _checked("cube", f, (*sys.mask.shape, sys.bands))
    with np.errstate(invalid="ignore"):  # inf + -inf gives NaN
        return f @ np.ones(sys.bands)  # not f.sum(axis=2), which adds in another order


def forward(f: np.ndarray, sys: SystemModel) -> Measurement:
    """Full observation: coded plane, plus the pan plane in dual mode."""
    return Measurement(cassi_forward(f, sys), pan_forward(f, sys) if sys.mode == DCCHI else None)


def _planes(y: Measurement, sys: SystemModel, finite: bool = True) -> Measurement:
    # y's planes as float64 arrays, checked against sys: the shapes and the pan
    # against the mode, then, if finite, the values, each named by its plane.
    yc = _checked("measurement", y.cassi, (sys.meas_rows, sys.mask.shape[1]))
    if sys.mode == CASSI and y.pan is not None:
        raise DimensionError("a CASSI system takes no pan plane")
    if sys.mode == DCCHI and y.pan is None:
        raise DimensionError("dual-camera system requires a pan plane")
    yp = None if y.pan is None else _checked("pan plane", y.pan, sys.mask.shape)
    if finite:
        yp = None if yp is None else check_array("pan plane", yp, None)
        yc = check_array("measurement", yc, None)
    return Measurement(yc, yp)


def adjoint(y: Measurement, sys: SystemModel) -> np.ndarray:
    """Exact adjoint of :func:`forward` applied to a measurement."""
    y = _planes(y, sys, finite=False)
    with np.errstate(invalid="ignore"):  # 0 * inf gives NaN
        f = _cassi_adjoint(y.cassi, sys)
        if y.pan is not None:
            f += y.pan[:, :, None]
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

    ``coded``: its coded block's diagonal, ``(meas_rows, cols)``, inf where no
    band lands. Dual-camera mode only: ``pan_diag``, the pan block's constant
    diagonal, and ``chol``, the banded Cholesky factor L of the Schur
    complement per detector column j: ``chol[c, t, j] = L[c + t, c]`` for
    ``t < bands``, plus ``bands - 1`` zero rows so every slice is full length.
    """

    sys: SystemModel
    coded: np.ndarray
    chol: np.ndarray | None = None
    pan_diag: float = 0.0


def ridge_factor(sys: SystemModel, rho: float) -> RidgeFactor:
    """Factor rho I + Phi Phi^T for :func:`ridge_project`.

    Phi Phi^T is diagonal on the coded plane: each detector pixel counts
    the mask over the bands that land on it. A pixel no band reaches holds
    no information (Phi^T maps it to zero), so its entry is inf and its
    residual is ignored: divided by a tiny rho it would overflow. In
    dual-camera mode, Phi = [C; P] adds the pan block P P^T = bands I and
    the cross term B = C P^T, which joins detector row i + d to pan row i
    of the same column with weight mask[i], d < bands. Eliminating the pan
    block leaves the Schur complement diag(coded) - B B^T / pan_diag,
    banded with half-bandwidth bands - 1 in each column, which a
    right-looking banded Cholesky factors for all columns at once.
    """
    rho = check_positive("rho", rho)
    rows, cols = sys.mask.shape
    cube = np.broadcast_to(sys.mask[:, :, None], (rows, cols, sys.bands))  # a view
    hits = cassi_forward(cube, sys)
    coded = np.where(hits > 0.0, rho + hits, np.inf)
    if sys.mode == CASSI:
        return RidgeFactor(sys=sys, coded=coded)
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
    # u >= 0, kept at chol[c + t, u]. An inf pivot has only zeros beside it.
    # A pivot that rounding leaves at or below 0 (NaN once square-rooted) is
    # reported after the loop.
    with np.errstate(invalid="ignore", divide="ignore"):
        for c in range(r):
            col = chol[c]
            np.sqrt(col[0], out=col[0])
            col[1:] /= col[0]
            for t in range(1, w + 1):
                chol[c + t, : w + 1 - t] -= col[t] * col[t:]
    if not np.all(chol[:r, 0] > 0.0):
        raise UsageError(
            f"rho={rho!r} is too small: the dual-camera rho I + Phi Phi^T is singular"
            " up to rounding (reconstruct's rho is 2 tau)"
        )
    return RidgeFactor(sys=sys, coded=coded, chol=chol, pan_diag=pan_diag)


def ridge_project(fac: RidgeFactor, y: Measurement, z: np.ndarray) -> np.ndarray:
    """z + Phi^T (rho I + Phi Phi^T)^{-1} (y - Phi z) for ``fac``'s system and rho.

    The step of generalized alternating projection (GAP): the exact f of
    (Phi^T Phi + rho I) f = Phi^T y + rho z.
    """
    sys = fac.sys
    y = _planes(y, sys)
    z = _checked("cube", z, (*sys.mask.shape, sys.bands), finite=True)
    if fac.chol is None:
        return z + _cassi_adjoint((y.cassi - cassi_forward(z, sys)) / fac.coded, sys)
    # With the residual (a, p) = y - Phi z, the pan block gives
    # v = (p - B^T u) / pan_diag and leaves S u = a - B p / pan_diag
    # = y.cassi - C (z + P^T p / pan_diag).
    p = y.pan - pan_forward(z, sys)
    chol, r, w = fac.chol, sys.meas_rows, sys.bands - 1
    u = np.zeros((r + w, z.shape[1]))
    u[:r] = y.cassi - cassi_forward(z + p[:, :, None] * (1.0 / fac.pan_diag), sys)
    for c in range(r):  # L x = rhs
        u[c] /= chol[c, 0]
        u[c + 1 : c + w + 1] -= chol[c, 1:] * u[c]
    for c in range(r - 1, -1, -1):  # L^T u = x
        u[c] -= np.einsum("tj,tj->j", chol[c, 1:], u[c + 1 : c + w + 1])
        u[c] /= chol[c, 0]
    ctu = _cassi_adjoint(u[:r], sys)
    v = (p - pan_forward(ctu, sys)) / fac.pan_diag
    return z + ctu + v[:, :, None]
