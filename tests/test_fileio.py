import errno
import struct

import numpy as np
import pytest

from hsrecon import fileio
from hsrecon.color import write_ppm
from hsrecon.errors import DataError
from hsrecon.fileio import (
    read_cube,
    read_mask,
    read_plane,
    write_atomic,
    write_cube,
    write_plane,
)


class TestCubeFile:
    def test_round_trip_bitwise(self, rng, tmp_path):
        cube = rng.random((3, 4, 5))
        p1, p2 = tmp_path / "a.hsc", tmp_path / "b.hsc"
        write_cube(cube, p1)
        back = read_cube(p1)
        write_cube(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(back, cube.astype(np.float32).astype(np.float64))

    def test_file_length(self, rng, tmp_path):
        path = tmp_path / "c.hsc"
        write_cube(rng.random((2, 2, 2)), path)
        assert path.stat().st_size == 4 + 12 + 32

    def test_band_major_layout(self, tmp_path):
        cube = np.arange(12, dtype=float).reshape(2, 3, 2)
        path = tmp_path / "d.hsc"
        write_cube(cube, path)
        raw = path.read_bytes()
        vals = np.frombuffer(raw, dtype="<f4", offset=16)
        # band 0 first, row-major within the band
        np.testing.assert_array_equal(vals[:6], cube[:, :, 0].ravel())
        np.testing.assert_array_equal(vals[6:], cube[:, :, 1].ravel())

    def test_truncated(self, rng, tmp_path):
        path = tmp_path / "t.hsc"
        write_cube(rng.random((2, 2, 2)), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataError, match="expected 48 bytes, got 44"):
            read_cube(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.hsc"
        path.write_bytes(b"XXXX" + struct.pack("<III", 1, 1, 1) + b"\0" * 4)
        with pytest.raises(DataError, match="bad magic"):
            read_cube(path)

    def test_non_finite_offset(self, tmp_path):
        path = tmp_path / "n.hsc"
        payload = np.array([1.0, np.inf], dtype="<f4").tobytes()
        path.write_bytes(b"HSC1" + struct.pack("<III", 1, 2, 1) + payload)
        with pytest.raises(DataError, match="byte offset 20"):
            read_cube(path)

    def test_write_rejects_nan(self, tmp_path):
        cube = np.zeros((2, 2, 2))
        cube[0, 0, 0] = np.nan
        with pytest.raises(DataError):
            write_cube(cube, tmp_path / "x.hsc")


class TestPlaneFile:
    def test_round_trip(self, rng, tmp_path):
        plane = rng.random((5, 7))
        path = tmp_path / "p.hsp"
        write_plane(plane, path)
        np.testing.assert_array_equal(
            read_plane(path), plane.astype(np.float32).astype(np.float64)
        )

    def test_mask_validation(self, tmp_path):
        path = tmp_path / "k.hsp"
        write_plane(np.array([[0.0, 1.0], [1.0, 0.0]]), path)
        np.testing.assert_array_equal(read_mask(path), [[0, 1], [1, 0]])
        write_plane(np.array([[0.5, 1.0]]), path)
        with pytest.raises(DataError, match="mask"):
            read_mask(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.hsp"
        path.write_bytes(b"HSP1\x01")
        with pytest.raises(DataError, match="truncated header"):
            read_plane(path)


class _FullDisk:
    """An open file that stores half of a write, then fails as a full disk does."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "no space left on device")


def _fail_replace(src, dst):
    raise OSError(errno.EXDEV, "injected rename failure")


WRITERS = {
    "cube": lambda path: write_cube(np.ones((2, 3, 4)), path),
    "plane": lambda path: write_plane(np.ones((3, 5)), path),
    "ppm": lambda path: write_ppm(np.zeros((2, 2, 3), np.uint8), path),
    "bytes": lambda path: write_atomic(path, b"new contents"),
}


class TestAtomicWrite:
    @pytest.mark.parametrize("fault", ["write", "replace"])
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failure_keeps_earlier_file(self, tmp_path, monkeypatch, writer, fault):
        path = tmp_path / "out.bin"
        path.write_bytes(b"earlier")
        if fault == "write":
            monkeypatch.setattr(fileio, "open", _FullDisk, raising=False)
        else:
            monkeypatch.setattr(fileio.os, "replace", _fail_replace)
        with pytest.raises(OSError):
            WRITERS[writer](path)
        assert path.read_bytes() == b"earlier"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_replaces_earlier_file(self, tmp_path, writer):
        path = tmp_path / "out.bin"
        path.write_bytes(b"earlier" * 100)
        WRITERS[writer](path)
        assert not path.read_bytes().startswith(b"earlier")
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
