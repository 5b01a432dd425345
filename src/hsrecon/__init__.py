"""Snapshot hyperspectral image reconstruction.

Simulates coded-aperture snapshot (and dual-camera) measurements and
reconstructs the cube by alternating nonlocal low-rank group denoising
with an exact least-squares data-fit update.
"""
from . import color, fileio, imaging, metrics, patches, solver, tensors
from .errors import DataError, DimensionError, HsreconError, UsageError

__all__ = [
    "color",
    "fileio",
    "imaging",
    "metrics",
    "patches",
    "solver",
    "tensors",
    "HsreconError",
    "UsageError",
    "DimensionError",
    "DataError",
]

__version__ = "0.1.0"
