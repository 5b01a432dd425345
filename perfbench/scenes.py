"""Benchmark inputs, generated here rather than by hsrecon or its tests.

``make_tucker_scene`` and ``make_mask`` reproduce, bitwise, the
acceptance scene of ``tests/conftest.py::make_tucker_scene`` and the mask
of ``hsrecon.imaging.generate_mask`` (a test checks both), so an edit to
the library or its tests cannot silently change what the benchmark feeds
the program. The HSC1 reader and writer follow the cube format in
README.md.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

HSC1 = b"HSC1"


def _mode_product(t: np.ndarray, u: np.ndarray, axis: int) -> np.ndarray:
    perm = (axis, (axis + 1) % 3, (axis + 2) % 3)
    m = t.transpose(perm).reshape(t.shape[axis], -1)
    out = (u @ m).reshape((u.shape[0],) + tuple(t.shape[p] for p in perm[1:]))
    return out.transpose(np.argsort(perm))


def make_tucker_scene(shape, ranks, seed: int) -> np.ndarray:
    """Nonnegative Tucker cube (abs-normal core and factors) rescaled to [0, 1]."""
    rng = np.random.default_rng(seed)
    core = np.abs(rng.standard_normal(ranks))
    factors = [np.abs(rng.standard_normal((d, r))) for d, r in zip(shape, ranks)]
    f = core
    for axis, u in enumerate(factors):
        f = _mode_product(f, u, axis)
    return (f - f.min()) / (f.max() - f.min())


def make_mask(rows: int, cols: int, p: float, seed: int) -> np.ndarray:
    """i.i.d. Bernoulli(p) 0/1 mask."""
    rng = np.random.default_rng(seed)
    return (rng.random((rows, cols)) < p).astype(np.float64)


def write_hsc1(cube: np.ndarray, path: Path) -> None:
    rows, cols, bands = cube.shape
    payload = np.ascontiguousarray(cube.transpose(2, 0, 1), dtype="<f4").tobytes()
    Path(path).write_bytes(HSC1 + struct.pack("<III", rows, cols, bands) + payload)


def read_hsc1(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != HSC1:
        raise ValueError(f"{path}: not an HSC1 file")
    rows, cols, bands = struct.unpack_from("<III", raw, 4)
    data = np.frombuffer(raw, dtype="<f4", offset=16, count=rows * cols * bands)
    return data.astype(np.float64).reshape(bands, rows, cols).transpose(1, 2, 0)
