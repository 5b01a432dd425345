"""Spectral-to-sRGB rendering of a cube for quick visual previews.

Bands are integrated against the CIE 1931 2-degree standard observer
(tabulated at 5 nm, linearly interpolated to the band wavelengths),
normalized so a flat unit spectrum maps to luminance 1, converted to
sRGB with the D65 primaries matrix and gamma-encoded.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DimensionError, UsageError, check_array
from .fileio import write_atomic

__all__ = ["cmf_at", "rgb_preview", "write_ppm"]

# CIE 1931 2-degree color matching functions, 380-780 nm at 5 nm steps.
# Columns: xbar, ybar, zbar.
_CMF_START = 380.0
_CMF_STEP = 5.0
_CMF = np.array([
    [0.0014, 0.0000, 0.0065], [0.0022, 0.0001, 0.0105], [0.0042, 0.0001, 0.0201],
    [0.0076, 0.0002, 0.0362], [0.0143, 0.0004, 0.0679], [0.0232, 0.0006, 0.1102],
    [0.0435, 0.0012, 0.2074], [0.0776, 0.0022, 0.3713], [0.1344, 0.0040, 0.6456],
    [0.2148, 0.0073, 1.0391], [0.2839, 0.0116, 1.3856], [0.3285, 0.0168, 1.6230],
    [0.3483, 0.0230, 1.7471], [0.3481, 0.0298, 1.7826], [0.3362, 0.0380, 1.7721],
    [0.3187, 0.0480, 1.7441], [0.2908, 0.0600, 1.6692], [0.2511, 0.0739, 1.5281],
    [0.1954, 0.0910, 1.2876], [0.1421, 0.1126, 1.0419], [0.0956, 0.1390, 0.8130],
    [0.0580, 0.1693, 0.6162], [0.0320, 0.2080, 0.4652], [0.0147, 0.2586, 0.3533],
    [0.0049, 0.3230, 0.2720], [0.0024, 0.4073, 0.2123], [0.0093, 0.5030, 0.1582],
    [0.0291, 0.6082, 0.1117], [0.0633, 0.7100, 0.0782], [0.1096, 0.7932, 0.0573],
    [0.1655, 0.8620, 0.0422], [0.2257, 0.9149, 0.0298], [0.2904, 0.9540, 0.0203],
    [0.3597, 0.9803, 0.0134], [0.4334, 0.9950, 0.0087], [0.5121, 1.0000, 0.0057],
    [0.5945, 0.9950, 0.0039], [0.6784, 0.9786, 0.0027], [0.7621, 0.9520, 0.0021],
    [0.8425, 0.9154, 0.0018], [0.9163, 0.8700, 0.0017], [0.9786, 0.8163, 0.0014],
    [1.0263, 0.7570, 0.0011], [1.0567, 0.6949, 0.0010], [1.0622, 0.6310, 0.0008],
    [1.0456, 0.5668, 0.0006], [1.0026, 0.5030, 0.0003], [0.9384, 0.4412, 0.0002],
    [0.8544, 0.3810, 0.0002], [0.7514, 0.3210, 0.0001], [0.6424, 0.2650, 0.0000],
    [0.5419, 0.2170, 0.0000], [0.4479, 0.1750, 0.0000], [0.3608, 0.1382, 0.0000],
    [0.2835, 0.1070, 0.0000], [0.2187, 0.0816, 0.0000], [0.1649, 0.0610, 0.0000],
    [0.1212, 0.0446, 0.0000], [0.0874, 0.0320, 0.0000], [0.0636, 0.0232, 0.0000],
    [0.0468, 0.0170, 0.0000], [0.0329, 0.0119, 0.0000], [0.0227, 0.0082, 0.0000],
    [0.0158, 0.0057, 0.0000], [0.0114, 0.0041, 0.0000], [0.0081, 0.0029, 0.0000],
    [0.0058, 0.0021, 0.0000], [0.0041, 0.0015, 0.0000], [0.0029, 0.0010, 0.0000],
    [0.0020, 0.0007, 0.0000], [0.0014, 0.0005, 0.0000], [0.0010, 0.0004, 0.0000],
    [0.0007, 0.0002, 0.0000], [0.0005, 0.0002, 0.0000], [0.0003, 0.0001, 0.0000],
    [0.0002, 0.0001, 0.0000], [0.0002, 0.0001, 0.0000], [0.0001, 0.0000, 0.0000],
    [0.0001, 0.0000, 0.0000], [0.0001, 0.0000, 0.0000], [0.0000, 0.0000, 0.0000],
])

# Linear XYZ (D65) to linear sRGB.
_XYZ_TO_SRGB = np.array([
    [3.2406, -1.5372, -0.4986],
    [-0.9689, 1.8758, 0.0415],
    [0.0557, -0.2040, 1.0570],
])


def cmf_at(wavelengths: np.ndarray) -> np.ndarray:
    """Interpolated (xbar, ybar, zbar) rows at the given wavelengths (nm)."""
    wl = check_array("wavelengths", wavelengths, 1, finite=False)
    if not np.all((wl >= 380.0) & (wl <= 780.0)):  # NaN fails both
        raise UsageError("wavelengths must be finite and within 380-780 nm")
    grid = _CMF_START + _CMF_STEP * np.arange(_CMF.shape[0])
    return np.column_stack(
        [np.interp(wl, grid, _CMF[:, c]) for c in range(3)]
    )


def _gamma_encode(lin: np.ndarray) -> np.ndarray:
    lin = np.clip(lin, 0.0, 1.0)
    return np.where(
        lin <= 0.0031308,
        12.92 * lin,
        1.055 * np.power(lin, 1.0 / 2.4) - 0.055,
    )


def rgb_preview(f: np.ndarray, wavelengths: np.ndarray) -> np.ndarray:
    """Render a cube to an 8-bit RGB image (shape rows x cols x 3)."""
    f = check_array("cube", f, 3)
    cmf = cmf_at(wavelengths)
    if f.shape[2] != len(cmf):
        raise DimensionError(f"cube with {f.shape[2]} bands needs {len(cmf)} wavelengths")
    ynorm = cmf[:, 1].sum()
    if ynorm == 0.0:
        raise UsageError("wavelength set has zero total luminance response")
    xyz = np.tensordot(f, cmf / ynorm, axes=([2], [0]))
    lin = np.tensordot(xyz, _XYZ_TO_SRGB.T, axes=([2], [0]))
    srgb = _gamma_encode(lin)
    return np.clip(np.rint(srgb * 255.0), 0, 255).astype(np.uint8)


def write_ppm(image: np.ndarray, path: str | Path) -> None:
    """Write an 8-bit RGB image as binary PPM (P6)."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise DimensionError("expected a rows x cols x 3 uint8 image")
    rows, cols = image.shape[:2]
    header = f"P6\n{cols} {rows}\n255\n".encode("ascii")
    write_atomic(path, header + image.tobytes())
