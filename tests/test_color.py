import numpy as np
import pytest

from hsrecon.color import cmf_at, rgb_preview, write_ppm
from hsrecon.errors import DimensionError, UsageError


class TestCmf:
    def test_out_of_range(self):
        with pytest.raises(UsageError):
            cmf_at(np.array([300.0]))
        with pytest.raises(UsageError):
            cmf_at(np.array([800.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite(self, bad):
        with pytest.raises(UsageError):
            cmf_at(np.array([550.0, bad]))

    def test_table_sample(self):
        row = cmf_at(np.array([550.0]))[0]
        np.testing.assert_allclose(row, [0.4334, 0.9950, 0.0087])

    def test_interpolation_midpoint(self):
        lo, hi, mid = (cmf_at(np.array([w]))[0] for w in (550.0, 555.0, 552.5))
        np.testing.assert_allclose(mid, (lo + hi) / 2.0, rtol=1e-12)


class TestRgbPreview:
    def test_zero_cube_black(self):
        wl = 400.0 + 10.0 * np.arange(8)
        image = rgb_preview(np.zeros((6, 6, 8)), wl)
        assert image.dtype == np.uint8
        assert not np.any(image)

    def test_flat_spectrum_near_gray(self):
        wl = np.arange(400.0, 701.0, 10.0)
        cube = np.ones((4, 4, wl.size))
        image = rgb_preview(cube, wl).astype(float)
        channels = image[0, 0]
        spread = channels.max() - channels.min()
        assert spread <= 0.12 * channels.mean()

    def test_green_band_dominant(self):
        cube = np.ones((3, 3, 1))
        image = rgb_preview(cube, np.array([550.0]))
        r, g, b = image[0, 0]
        assert g > r and g > b

    def test_band_count_mismatch(self):
        with pytest.raises(DimensionError):
            rgb_preview(np.zeros((3, 3, 2)), np.array([550.0]))


class TestPpm:
    def test_header_and_payload(self, tmp_path, rng):
        image = (rng.random((5, 7, 3)) * 255).astype(np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(image, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n7 5\n255\n")
        assert raw[len(b"P6\n7 5\n255\n") :] == image.tobytes()

    def test_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(DimensionError):
            write_ppm(np.zeros((2, 2, 3)), tmp_path / "x.ppm")
