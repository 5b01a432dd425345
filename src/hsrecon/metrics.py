"""Quality indexes between a reference cube and a reconstruction.

PSNR uses peak 1 over the whole cube and caps identical inputs at 100 dB.
SSIM is the standard single-scale index per band (11x11 Gaussian window,
sigma 1.5, K1=0.01, K2=0.03, dynamic range 1), averaged over bands.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, DimensionError, UsageError, check_array

__all__ = ["QualityReport", "psnr", "ssim", "rmse", "ergas", "evaluate"]

PSNR_CAP_DB = 100.0

_SSIM_WIN = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03


@dataclass(frozen=True)
class QualityReport:
    psnr: float
    ssim: float
    ergas: float
    rmse: float
    band_psnr: tuple[float, ...]


def _check_pair(ref: np.ndarray, est: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ref, est = check_array("reference cube", ref, 3), check_array("estimate", est, 3)
    if ref.shape != est.shape or 0 in ref.shape:
        raise DimensionError(f"cubes need equal, non-empty axes, got {ref.shape} and {est.shape}")
    return np.ascontiguousarray(ref), np.ascontiguousarray(est)  # ssim's sums follow the layout


def _band_sse(ref: np.ndarray, est: np.ndarray) -> list[float]:
    # Sum of squared errors of each band, which every index below reads.
    # Whole-cube sums add them exactly (math.fsum), so they do not depend
    # on the band order.
    return [float(np.sum((ref[:, :, b] - est[:, :, b]) ** 2)) for b in range(ref.shape[2])]


def _mse_to_db(mse: float) -> float:
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(1.0 / mse), PSNR_CAP_DB)


def _ergas(ref: np.ndarray, sse: list[float]) -> float:
    plane = ref.shape[0] * ref.shape[1]
    terms = []
    for b, e in enumerate(sse):
        mean_b = float(np.mean(ref[:, :, b]))
        if mean_b == 0.0:
            raise DataError(f"band {b} of the reference has zero mean")
        terms.append((float(np.sqrt(e / plane)) / mean_b) ** 2)
    return float(100.0 * np.sqrt(np.mean(terms)))


def psnr(ref: np.ndarray, est: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB with peak 1."""
    ref, est = _check_pair(ref, est)
    return _mse_to_db(math.fsum(_band_sse(ref, est)) / ref.size)


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    ax = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(ax**2) / (2.0 * sigma**2))
    return g / g.sum()


def _filter_valid(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    # "valid" filtering by the 2-D window outer(g, g), one axis at a time.
    # g is symmetric, so this correlation is also the convolution.
    a = sliding_window_view(a, g.size, axis=0) @ g
    return sliding_window_view(a, g.size, axis=1) @ g


def _ssim_band(x: np.ndarray, y: np.ndarray, g: np.ndarray) -> float:
    c1 = _SSIM_K1**2
    c2 = _SSIM_K2**2
    mu_x = _filter_valid(x, g)
    mu_y = _filter_valid(y, g)
    var_x = _filter_valid(x * x, g) - mu_x * mu_x
    var_y = _filter_valid(y * y, g) - mu_y * mu_y
    cov = _filter_valid(x * y, g) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


def _ssim(ref: np.ndarray, est: np.ndarray) -> float:
    # SSIM of a checked pair whose bands fit the window.
    g = _gaussian_window(_SSIM_WIN, _SSIM_SIGMA)
    vals = [_ssim_band(ref[:, :, b], est[:, :, b], g) for b in range(ref.shape[2])]
    return float(np.mean(vals))


def ssim(ref: np.ndarray, est: np.ndarray) -> float:
    """Mean over bands of the single-scale structural similarity index."""
    ref, est = _check_pair(ref, est)
    if min(ref.shape[0], ref.shape[1]) < _SSIM_WIN:
        raise UsageError(f"bands must be at least {_SSIM_WIN}x{_SSIM_WIN} for SSIM")
    return _ssim(ref, est)


def rmse(ref: np.ndarray, est: np.ndarray) -> float:
    """Root mean squared voxel error."""
    ref, est = _check_pair(ref, est)
    return float(np.sqrt(math.fsum(_band_sse(ref, est)) / ref.size))


def ergas(ref: np.ndarray, est: np.ndarray) -> float:
    """Relative dimensionless global synthesis error over bands."""
    ref, est = _check_pair(ref, est)
    return _ergas(ref, _band_sse(ref, est))


def evaluate(ref: np.ndarray, est: np.ndarray) -> QualityReport:
    """All four indexes plus the per-band PSNR list.

    ERGAS is ``nan`` when a reference band has zero mean, and SSIM when
    the bands are smaller than its 11x11 window, where each is undefined;
    the other indexes are still reported.
    """
    ref, est = _check_pair(ref, est)
    sse = _band_sse(ref, est)
    mse = math.fsum(sse) / ref.size
    plane = ref.shape[0] * ref.shape[1]
    try:
        ergas_ = _ergas(ref, sse)
    except DataError:
        ergas_ = math.nan
    return QualityReport(
        psnr=_mse_to_db(mse),
        ssim=_ssim(ref, est) if min(ref.shape[0], ref.shape[1]) >= _SSIM_WIN else math.nan,
        ergas=ergas_,
        rmse=float(np.sqrt(mse)),
        band_psnr=tuple(_mse_to_db(e / plane) for e in sse),
    )
