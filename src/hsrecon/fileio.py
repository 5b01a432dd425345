"""Minimal binary containers for cubes and planes.

Cube files: magic ``HSC1``, three little-endian u32 (rows, cols, bands),
then rows*cols*bands little-endian float32 in band-major order (band
slowest, then rows, then columns). Plane files: magic ``HSP1``, two u32
(rows, cols), then row-major float32. A mask is stored as a plane;
:class:`hsrecon.imaging.SystemModel` checks that it holds only 0.0/1.0.

Every writer goes through :func:`write_atomic`, so a reader never sees a
half-written file and a failed write leaves any earlier file in place.
"""
from __future__ import annotations

import math
import os
import struct
import threading
from pathlib import Path

import numpy as np

from .errors import DataError, check_array

__all__ = [
    "read_cube",
    "write_cube",
    "read_plane",
    "write_plane",
    "write_atomic",
]

CUBE_MAGIC = b"HSC1"
PLANE_MAGIC = b"HSP1"


def _read_payload(
    raw: bytes, path: str, magic: bytes, header_fmt: str
) -> tuple[tuple[int, ...], np.ndarray]:
    header_len = 4 + struct.calcsize(header_fmt)
    if len(raw) < header_len:
        raise DataError(f"{path}: truncated header ({len(raw)} < {header_len} bytes)")
    if raw[:4] != magic:
        raise DataError(f"{path}: bad magic {raw[:4]!r}, expected {magic!r}")
    dims = struct.unpack_from(header_fmt, raw, 4)
    if 0 in dims:
        raise DataError(f"{path}: header sizes {dims} include a zero")
    count = math.prod(dims)  # Python ints: an int64 product can wrap to 0
    expected = header_len + 4 * count
    if len(raw) != expected:
        raise DataError(
            f"{path}: payload length mismatch, expected {expected} bytes, "
            f"got {len(raw)}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=header_len, count=count)
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        offset = header_len + 4 * int(bad[0])
        raise DataError(f"{path}: non-finite value at byte offset {offset}")
    return dims, data


def _write_payload(
    path: str | Path, magic: bytes, kind: str, array: np.ndarray, order: tuple[int, ...]
) -> None:
    # The header holds the sizes in the array's axis order, the payload its
    # samples with the axes permuted by ``order``.
    array = check_array(kind, array, len(order), finite=False)  # finite at float32, below
    if 0 in array.shape:  # the readers reject a zero size
        raise DataError(f"{kind} has a zero-length axis, shape {array.shape}")
    with np.errstate(over="ignore"):  # values past the float32 range become inf
        payload = np.ascontiguousarray(array.transpose(order), dtype="<f4")
    if not np.all(np.isfinite(payload)):
        raise DataError(f"{kind} contains non-finite values at float32 precision")
    header = magic + struct.pack(f"<{array.ndim}I", *array.shape)
    write_atomic(path, header + payload.tobytes())


def read_cube(path: str | Path) -> np.ndarray:
    """Load an HSC1 file as a float64 cube of shape (rows, cols, bands)."""
    raw = Path(path).read_bytes()
    (rows, cols, bands), data = _read_payload(raw, str(path), CUBE_MAGIC, "<III")
    cube = data.astype(np.float64).reshape(bands, rows, cols)
    return np.ascontiguousarray(cube.transpose(1, 2, 0))


def write_cube(cube: np.ndarray, path: str | Path) -> None:
    """Write a cube as HSC1 (values stored at float32 precision)."""
    _write_payload(path, CUBE_MAGIC, "cube", cube, (2, 0, 1))


def read_plane(path: str | Path) -> np.ndarray:
    """Load an HSP1 file as a float64 matrix."""
    raw = Path(path).read_bytes()
    (rows, cols), data = _read_payload(raw, str(path), PLANE_MAGIC, "<II")
    return data.astype(np.float64).reshape(rows, cols)


def write_plane(plane: np.ndarray, path: str | Path) -> None:
    """Write a matrix as HSP1 (float32 precision)."""
    _write_payload(path, PLANE_MAGIC, "plane", plane, (0, 1))


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it over ``path``.

    On any failure the temp file is removed and ``path`` keeps whatever it
    held before. Each thread writes a temp file of its own.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as out:
            out.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
