"""Observation models of the coded-aperture snapshot imager.

A hyperspectral cube is a ``float64`` ndarray of shape ``(I, J, L)``
(rows, columns, bands). The forward model codes each band with a binary
mask, shifts it vertically by a per-band integer dispersion offset and
sums the bands onto a single detector plane of shape
``(I + max(offset), J)``. The dual-camera mode adds an uncoded
panchromatic plane, the per-band weighted sum of the cube.

``adjoint`` is the exact linear adjoint of ``forward``. ``ridge_factor``
and ``ridge_solve`` solve (Phi^T Phi + rho I) f = b exactly, the image
update of :mod:`hsrecon.solver`.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, UsageError

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

    ``dispersion`` holds one nonnegative integer row offset per band
    (default: one pixel per band). ``response`` weights the coded branch;
    ``pan_response`` weights the panchromatic branch, and None (the
    default) is resolved to ``response``.
    """

    mask: np.ndarray
    dispersion: np.ndarray
    response: np.ndarray
    mode: str = CASSI
    pan_response: np.ndarray | None = None

    def __post_init__(self):
        mask = np.ascontiguousarray(np.asarray(self.mask, dtype=np.float64))
        disp = np.asarray(self.dispersion, dtype=np.float64)
        resp = np.asarray(self.response, dtype=np.float64)
        if mask.ndim != 2 or not mask.size:
            raise DimensionError(f"mask must be a non-empty 2D matrix, got shape {mask.shape}")
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise DataError("mask entries must be 0 or 1")
        if disp.ndim != 1 or not disp.size or disp.shape != resp.shape:
            raise DimensionError("dispersion and response must be equal-length non-empty vectors")
        if not np.all(np.isfinite(disp) & (disp == np.floor(disp))):
            raise DataError("dispersion offsets must be integers")
        if np.any(np.diff(disp) < 0) or disp[0] < 0:
            raise DataError("dispersion offsets must be nonnegative and nondecreasing")
        if not np.all((0 < resp) & (resp < np.inf)):
            raise DataError("response entries must be positive and finite")
        if self.mode not in (CASSI, DCCHI):
            raise UsageError(f"unknown mode {self.mode!r}")
        pan = self.pan_response
        pan = resp if pan is None else np.asarray(pan, dtype=np.float64)
        if pan.shape != resp.shape or not np.all((0 < pan) & (pan < np.inf)):
            raise DataError("pan_response must be positive and finite with one entry per band")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "dispersion", disp.astype(np.int64))
        object.__setattr__(self, "response", resp)
        object.__setattr__(self, "pan_response", pan)

    @classmethod
    def default(cls, mask: np.ndarray, bands: int, mode: str = CASSI) -> "SystemModel":
        """Linear one-pixel-per-band dispersion, flat unit response."""
        return cls(
            mask=mask,
            dispersion=np.arange(bands),
            response=np.ones(bands),
            mode=mode,
        )

    @property
    def bands(self) -> int:
        return self.response.shape[0]

    @property
    def meas_rows(self) -> int:
        return self.mask.shape[0] + int(self.dispersion.max())


@dataclass(frozen=True)
class Measurement:
    """Detector planes: the coded snapshot plus the optional pan plane."""

    cassi: np.ndarray
    pan: np.ndarray | None = None


def generate_mask(rows: int, cols: int, p: float, seed: int) -> np.ndarray:
    """Seeded i.i.d. Bernoulli(p) binary mask as a 0/1 float matrix."""
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"p must lie in [0, 1], got {p}")
    for name, value, low in (("rows", rows, 1), ("cols", cols, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            raise UsageError(f"{name} must be an integer >= {low}, got {value!r}")
    rng = np.random.default_rng(seed)
    return (rng.random((rows, cols)) < p).astype(np.float64)


def _check_cube(f: np.ndarray, sys: SystemModel) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    rows, cols = sys.mask.shape
    if f.shape != (rows, cols, sys.bands):
        raise DimensionError(
            f"cube shape {f.shape} does not match system {(rows, cols, sys.bands)}"
        )
    return f


def cassi_forward(f: np.ndarray, sys: SystemModel) -> np.ndarray:
    """Coded, dispersed and band-integrated snapshot of the cube."""
    f = _check_cube(f, sys)
    rows, cols = sys.mask.shape
    out = np.zeros((sys.meas_rows, cols))
    for lam in range(sys.bands):
        d = int(sys.dispersion[lam])
        out[d : d + rows, :] += sys.response[lam] * sys.mask * f[:, :, lam]
    return out


def pan_forward(f: np.ndarray, sys: SystemModel) -> np.ndarray:
    """Uncoded per-band weighted sum onto the panchromatic detector."""
    if sys.mode != DCCHI:
        raise UsageError("pan_forward requires a dual-camera system")
    f = _check_cube(f, sys)
    return f @ sys.pan_response


def forward(f: np.ndarray, sys: SystemModel) -> Measurement:
    """Full observation: coded plane, plus the pan plane in dual mode."""
    cassi = cassi_forward(f, sys)
    pan = pan_forward(f, sys) if sys.mode == DCCHI else None
    return Measurement(cassi=cassi, pan=pan)


def adjoint(y: Measurement, sys: SystemModel) -> np.ndarray:
    """Exact adjoint of :func:`forward` applied to a measurement."""
    rows, cols = sys.mask.shape
    yc = np.asarray(y.cassi, dtype=np.float64)
    if yc.shape != (sys.meas_rows, cols):
        raise DimensionError(
            f"measurement shape {yc.shape} does not match system "
            f"{(sys.meas_rows, cols)}"
        )
    f = _cassi_adjoint(yc, sys)
    if sys.mode == DCCHI:
        if y.pan is None:
            raise DimensionError("dual-camera system requires a pan plane")
        yp = np.asarray(y.pan, dtype=np.float64)
        if yp.shape != (rows, cols):
            raise DimensionError(f"pan plane shape {yp.shape} != {(rows, cols)}")
        f += yp[:, :, None] * sys.pan_response[None, None, :]
    return f


def _cassi_adjoint(yc: np.ndarray, sys: SystemModel) -> np.ndarray:
    rows, cols = sys.mask.shape
    f = np.zeros((rows, cols, sys.bands))
    for lam in range(sys.bands):
        d = int(sys.dispersion[lam])
        f[:, :, lam] = sys.response[lam] * sys.mask * yc[d : d + rows, :]
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
    detector column j: ``chol[c, t, j] = L[c + t, c]`` for
    ``t = 0..max(dispersion)``, plus ``max(dispersion)`` zero rows so every
    band slice has full length.
    """

    sys: SystemModel
    rho: float
    coded: np.ndarray
    chol: np.ndarray | None = None
    pan_diag: float = 0.0


def ridge_factor(sys: SystemModel, rho: float) -> RidgeFactor:
    """Factor rho I + Phi Phi^T for solving (Phi^T Phi + rho I) f = b.

    By Woodbury, f = (b - Phi^T (rho I + Phi Phi^T)^{-1} Phi b) / rho.
    Phi Phi^T is diagonal on the coded plane: each detector pixel sums
    response**2 * mask over the bands that land on it. In dual-camera mode,
    Phi = [C; P] adds the pan block P P^T = sum(pan**2) I and the cross term
    B = C P^T, which joins detector row i + d to pan row i of the same
    column with weight mask[i] * beta[d], beta[d] = sum(response * pan) over
    the bands dispersed by d. Eliminating the pan block leaves the Schur
    complement diag(coded) - B B^T / pan_diag, banded with half-bandwidth
    max(dispersion) in each column, which a right-looking banded Cholesky
    factors for all columns at once.
    """
    rho = float(rho)
    if not (np.isfinite(rho) and rho > 0.0):
        raise UsageError(f"rho must be positive and finite, got {rho}")
    rows, cols = sys.mask.shape
    coded = rho + cassi_forward(sys.mask[:, :, None] * sys.response, sys)
    if sys.mode == CASSI:
        return RidgeFactor(sys=sys, rho=rho, coded=coded)
    pan = sys.pan_response
    pan_diag = rho + float(pan @ pan)
    w = int(sys.dispersion.max())
    r = sys.meas_rows
    beta = np.bincount(sys.dispersion, weights=sys.response * pan, minlength=w + 1)
    chol = np.zeros((r + w, w + 1, cols))
    chol[:r, 0] = coded
    # (B B^T)[i + d + t, i + d] = mask[i] beta[d] beta[d + t], for d + t <= w
    for d in range(w + 1):
        coef = beta[d] * beta[d:] / pan_diag
        chol[d : d + rows, : w + 1 - d] -= coef[None, :, None] * sys.mask[:, None, :]
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
    b = np.asarray(b, dtype=np.float64)
    if not np.all(np.isfinite(b)):
        raise DataError("right-hand side contains non-finite entries")
    sys = fac.sys
    if fac.chol is None:
        u = cassi_forward(b, sys) / fac.coded
        return (b - _cassi_adjoint(u, sys)) / fac.rho
    # With Phi b = (a, p), the pan block gives v = (p - B^T u) / pan_diag
    # and leaves S u = a - B p / pan_diag = C (b - P^T p / pan_diag).
    pan = sys.pan_response
    p = pan_forward(b, sys)
    chol = fac.chol
    r = sys.meas_rows
    w = chol.shape[1] - 1
    u = np.zeros((r + w, b.shape[1]))
    u[:r] = cassi_forward(b - p[:, :, None] * (pan / fac.pan_diag), sys)
    for c in range(r):  # L z = rhs
        u[c] /= chol[c, 0]
        u[c + 1 : c + w + 1] -= chol[c, 1:] * u[c]
    for c in range(r - 1, -1, -1):  # L^T u = z
        u[c] -= np.einsum("tj,tj->j", chol[c, 1:], u[c + 1 : c + w + 1])
        u[c] /= chol[c, 0]
    ctu = _cassi_adjoint(u[:r], sys)
    v = (p - ctu @ pan) / fac.pan_diag
    return (b - ctu - v[:, :, None] * pan) / fac.rho
