import errno
import struct

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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

    def test_write_rejects_float32_overflow(self, tmp_path):
        cube = np.zeros((2, 2, 2))
        cube[1, 0, 1] = -1e39  # finite in float64, -inf in float32
        with pytest.raises(DataError, match="float32"):
            write_cube(cube, tmp_path / "x.hsc")
        assert list(tmp_path.iterdir()) == []


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

    def test_write_rejects_float32_overflow(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        path = tmp_path / "p.hsp"
        write_plane(np.array([[top, -top]]), path)
        np.testing.assert_array_equal(read_plane(path), [[top, -top]])
        with pytest.raises(DataError, match="float32"):
            write_plane(np.array([[0.0, 1e39]]), tmp_path / "x.hsp")
        assert [p.name for p in tmp_path.iterdir()] == ["p.hsp"]


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


_FINITE32 = st.floats(allow_nan=False, allow_infinity=False, width=32)
# small sizes, and u32 values whose int64 product wraps (2**31 * 2**31 * 4 == 2**64)
_DIM = st.one_of(st.integers(0, 4), st.sampled_from([2**16, 2**31, 2**32 - 1]),
                 st.integers(0, 2**32 - 1))
_FORMATS = {
    "cube": (b"HSC1", "<III", read_cube),
    "plane": (b"HSP1", "<II", read_plane),
}
_TMP_OK = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFormatProperties:
    @_TMP_OK
    @given(cube=arrays(np.float64, st.tuples(*[st.integers(1, 5)] * 3), elements=_FINITE32))
    def test_cube_round_trip(self, tmp_path, cube):
        p1, p2 = tmp_path / "a.hsc", tmp_path / "b.hsc"
        write_cube(cube, p1)
        back = read_cube(p1)
        np.testing.assert_array_equal(back, cube)
        write_cube(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @_TMP_OK
    @given(plane=arrays(np.float64, st.tuples(*[st.integers(1, 6)] * 2), elements=_FINITE32))
    def test_plane_round_trip(self, tmp_path, plane):
        p1, p2 = tmp_path / "a.hsp", tmp_path / "b.hsp"
        write_plane(plane, p1)
        back = read_plane(p1)
        np.testing.assert_array_equal(back, plane)
        write_plane(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @_TMP_OK
    @given(
        fmt=st.sampled_from(sorted(_FORMATS)),
        magic_ok=st.booleans(),
        other_magic=st.binary(min_size=4, max_size=4),
        dims=st.tuples(_DIM, _DIM, _DIM),
        payload=st.binary(max_size=64),
    )
    def test_bad_headers_raise_data_error(self, tmp_path, fmt, magic_ok, other_magic, dims,
                                          payload):
        magic, header_fmt, read = _FORMATS[fmt]
        dims = dims[: len(header_fmt) - 1]
        if not magic_ok and other_magic == magic:
            other_magic = b"XXXX"
        path = tmp_path / "f.bin"
        path.write_bytes((magic if magic_ok else other_magic)
                         + struct.pack(header_fmt, *dims) + payload)
        if magic_ok and 0 not in dims and 4 * math.prod(dims) == len(payload):
            try:
                assert read(path).size == math.prod(dims)
            except DataError as e:  # the payload may hold a NaN or inf
                assert "non-finite" in str(e)
        else:
            with pytest.raises(DataError):
                read(path)

    @_TMP_OK
    @given(fmt=st.sampled_from(sorted(_FORMATS)), raw=st.binary(max_size=40))
    def test_any_bytes_read_or_raise_data_error(self, tmp_path, fmt, raw):
        magic, _, read = _FORMATS[fmt]
        path = tmp_path / "f.bin"
        for data in (raw, magic + raw):
            path.write_bytes(data)
            try:
                read(path)
            except DataError:
                pass

    @pytest.mark.parametrize("fmt", sorted(_FORMATS))
    def test_zero_size_header(self, tmp_path, fmt):
        magic, header_fmt, read = _FORMATS[fmt]
        path = tmp_path / "z.bin"
        path.write_bytes(magic + struct.pack(header_fmt, *([0] + [4] * (len(header_fmt) - 2))))
        with pytest.raises(DataError, match="zero"):
            read(path)

    def test_header_whose_int64_size_wraps_to_zero(self, tmp_path):
        path = tmp_path / "w.hsc"
        path.write_bytes(b"HSC1" + struct.pack("<III", 2**31, 2**31, 4))
        with pytest.raises(DataError, match="payload length mismatch"):
            read_cube(path)
