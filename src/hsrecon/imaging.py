"""Observation models of the coded-aperture snapshot imager.

A hyperspectral cube is a ``float64`` ndarray of shape ``(I, J, L)``
(rows, columns, bands). The forward model codes each band with a binary
mask, shifts it vertically by a per-band integer dispersion offset and
sums the bands onto a single detector plane of shape
``(I + max(offset), J)``. The dual-camera mode adds an uncoded
panchromatic plane, the per-band weighted sum of the cube.

``adjoint`` is the exact linear adjoint of ``forward``; the pair backs the
conjugate-gradient image update in :mod:`hsrecon.solver`.
"""
from __future__ import annotations

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
]


@dataclass(frozen=True)
class SystemModel:
    """Immutable description of the optical system.

    ``dispersion`` holds one nonnegative integer row offset per band
    (default: one pixel per band). ``response`` weights the coded branch;
    ``pan_response`` weights the panchromatic branch and defaults to
    ``response``.
    """

    mask: np.ndarray
    dispersion: np.ndarray
    response: np.ndarray
    mode: str = CASSI
    pan_response: np.ndarray | None = None

    def __post_init__(self):
        mask = np.ascontiguousarray(np.asarray(self.mask, dtype=np.float64))
        disp = np.asarray(self.dispersion, dtype=np.int64)
        resp = np.asarray(self.response, dtype=np.float64)
        if mask.ndim != 2:
            raise DimensionError("mask must be a 2D matrix")
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise DataError("mask entries must be 0 or 1")
        if disp.ndim != 1 or resp.ndim != 1 or disp.shape != resp.shape:
            raise DimensionError("dispersion and response must be equal-length vectors")
        if np.any(np.diff(disp) < 0) or disp[0] < 0:
            raise DataError("dispersion offsets must be nonnegative and nondecreasing")
        if np.any(resp <= 0):
            raise DataError("response entries must be positive")
        if self.mode not in (CASSI, DCCHI):
            raise UsageError(f"unknown mode {self.mode!r}")
        pan = self.pan_response
        if pan is not None:
            pan = np.asarray(pan, dtype=np.float64)
            if pan.shape != resp.shape or np.any(pan <= 0):
                raise DataError("pan_response must be positive with one entry per band")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "dispersion", disp)
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

    def _pan_resp(self) -> np.ndarray:
        return self.response if self.pan_response is None else self.pan_response


@dataclass(frozen=True)
class Measurement:
    """Detector planes: the coded snapshot plus the optional pan plane."""

    cassi: np.ndarray
    pan: np.ndarray | None = None


def generate_mask(rows: int, cols: int, p: float, seed: int) -> np.ndarray:
    """Seeded i.i.d. Bernoulli(p) binary mask as a 0/1 float matrix."""
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"p must lie in [0, 1], got {p}")
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
    return f @ sys._pan_resp()


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
    f = np.zeros((rows, cols, sys.bands))
    for lam in range(sys.bands):
        d = int(sys.dispersion[lam])
        f[:, :, lam] = sys.response[lam] * sys.mask * yc[d : d + rows, :]
    if sys.mode == DCCHI:
        if y.pan is None:
            raise DimensionError("dual-camera system requires a pan plane")
        yp = np.asarray(y.pan, dtype=np.float64)
        if yp.shape != (rows, cols):
            raise DimensionError(f"pan plane shape {yp.shape} != {(rows, cols)}")
        f += yp[:, :, None] * sys._pan_resp()[None, None, :]
    return f


def apply_normal_operator(f: np.ndarray, sys: SystemModel) -> np.ndarray:
    """Adjoint composed with forward, fused into one call."""
    return adjoint(forward(f, sys), sys)
