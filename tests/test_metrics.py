import math

import numpy as np
import pytest

from hsrecon import metrics
from hsrecon.errors import DataError, DimensionError, UsageError
from hsrecon.metrics import ergas, evaluate, psnr, rmse, ssim


def _pair(rng, shape=(16, 16, 3)):
    ref = rng.random(shape)
    est = np.clip(ref + 0.05 * rng.standard_normal(shape), 0, 1)
    return ref, est


class TestPsnr:
    def test_identical_capped(self, rng):
        ref = rng.random((8, 8, 2))
        assert psnr(ref, ref) == 100.0

    def test_constant_offset(self, rng):
        ref = rng.random((8, 8, 2)) * 0.5
        assert psnr(ref, ref + 0.1) == pytest.approx(20.0, abs=1e-9)

    def test_dims_mismatch(self, rng):
        with pytest.raises(DimensionError):
            psnr(rng.random((4, 4, 2)), rng.random((4, 4, 3)))

    def test_monotone_in_noise(self, rng):
        ref = rng.random((16, 16, 3))
        noise = rng.standard_normal(ref.shape)
        vals = [psnr(ref, ref + amp * noise) for amp in (0.01, 0.05, 0.2)]
        assert vals[0] > vals[1] > vals[2]


class TestSsim:
    def test_identical(self, rng):
        ref = rng.random((16, 16, 2))
        assert ssim(ref, ref) == 1.0

    def test_inverted_less_than_one(self, rng):
        ref = rng.random((16, 16, 2))
        assert ssim(ref, 1.0 - ref) < 1.0

    def test_window_too_large(self, rng):
        with pytest.raises(UsageError):
            ssim(rng.random((8, 8, 2)), rng.random((8, 8, 2)))

    def test_against_reference_implementation(self, rng):
        skimage = pytest.importorskip("skimage.metrics")
        ref, est = _pair(rng)
        expect = np.mean(
            [
                skimage.structural_similarity(
                    ref[:, :, b],
                    est[:, :, b],
                    data_range=1.0,
                    gaussian_weights=True,
                    sigma=1.5,
                    use_sample_covariance=False,
                )
                for b in range(ref.shape[2])
            ]
        )
        assert ssim(ref, est) == pytest.approx(expect, abs=1e-4)


class TestRmse:
    def test_identical(self, rng):
        ref = rng.random((8, 8, 2))
        assert rmse(ref, ref) == 0.0

    def test_constant_offset(self, rng):
        ref = rng.random((8, 8, 2))
        assert rmse(ref, ref + 0.1) == pytest.approx(0.1, rel=1e-12)

    def test_direct_formula(self, rng):
        ref, est = _pair(rng)
        expect = np.sqrt(np.mean((ref - est) ** 2))
        assert rmse(ref, est) == pytest.approx(expect, rel=1e-15)

    def test_frobenius_relation(self, rng):
        ref, est = _pair(rng)
        lhs = rmse(ref, est) ** 2 * ref.size
        rhs = np.sum((ref - est) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestErgas:
    def test_identical(self, rng):
        ref = rng.random((8, 8, 2)) + 0.1
        assert ergas(ref, ref) == 0.0

    def test_scaled_bands(self):
        ref = np.stack(
            [np.full((8, 8), 0.4), np.full((8, 8), 0.7)], axis=2
        )
        assert ergas(ref, 1.1 * ref) == pytest.approx(10.0, abs=1e-9)

    def test_direct_formula(self, rng):
        ref, est = _pair(rng)
        terms = []
        for b in range(ref.shape[2]):
            r = np.sqrt(np.mean((ref[:, :, b] - est[:, :, b]) ** 2))
            terms.append((r / np.mean(ref[:, :, b])) ** 2)
        expect = 100.0 * np.sqrt(np.mean(terms))
        assert ergas(ref, est) == pytest.approx(expect, rel=1e-12)

    def test_zero_band_mean(self, rng):
        ref = rng.random((8, 8, 2))
        ref[:, :, 1] = 0.0
        with pytest.raises(DataError):
            ergas(ref, ref)


class TestPermutationConsistency:
    def test_band_shuffle(self, rng):
        ref, est = _pair(rng, (16, 16, 4))
        perm = rng.permutation(4)
        refp, estp = ref[:, :, perm], est[:, :, perm]
        assert psnr(refp, estp) == psnr(ref, est)
        assert rmse(refp, estp) == rmse(ref, est)
        assert ssim(refp, estp) == pytest.approx(ssim(ref, est), abs=1e-12)
        assert ergas(refp, estp) == pytest.approx(ergas(ref, est), abs=1e-12)


class TestEvaluate:
    def test_report_fields(self, rng):
        ref, est = _pair(rng)
        report = evaluate(ref, est)
        assert len(report.band_psnr) == 3
        assert report.rmse > 0

    def test_zero_mean_reference_band_gives_nan_ergas_only(self, rng):
        ref = rng.random((12, 12, 3))
        ref[:, :, 1] = 0.0
        est = ref + 0.01 * rng.standard_normal(ref.shape)
        report = evaluate(ref, est)
        assert math.isnan(report.ergas)
        assert report.psnr == psnr(ref, est)
        assert report.ssim == ssim(ref, est)
        assert report.rmse == rmse(ref, est)
        zero = np.zeros((12, 12, 4))
        report = evaluate(zero, zero)
        assert report.psnr == 100.0 and report.rmse == 0.0 and report.ssim == 1.0
        assert math.isnan(report.ergas)

    @pytest.mark.parametrize("shape", [(10, 10, 4), (10, 16, 2), (16, 10, 2)])
    def test_plane_smaller_than_the_ssim_window_gives_nan_ssim_only(self, rng, shape):
        ref = rng.random(shape)
        est = ref + 0.01 * rng.standard_normal(shape)
        report = evaluate(ref, est)
        assert math.isnan(report.ssim)
        assert report.psnr == psnr(ref, est)
        assert report.rmse == rmse(ref, est)
        assert report.ergas == ergas(ref, est)
        with pytest.raises(UsageError, match="11x11"):
            ssim(ref, est)

    def test_checks_the_pair_once(self, rng, monkeypatch):
        calls = []
        check = metrics._check_pair

        def counted(ref, est):
            calls.append(ref)
            return check(ref, est)

        monkeypatch.setattr(metrics, "_check_pair", counted)
        evaluate(*_pair(rng))
        assert len(calls) == 1


@pytest.mark.parametrize("index", [psnr, ssim, rmse, ergas, evaluate])
def test_rejects_input_that_is_not_a_cube(rng, index):
    ref = rng.random((12, 12))
    with pytest.raises(DimensionError):
        index(ref, ref.copy())


@pytest.mark.parametrize("shape", [(11, 11, 0), (0, 11, 3), (11, 0, 3)])
@pytest.mark.parametrize("index", [psnr, ssim, rmse, ergas, evaluate])
def test_rejects_a_cube_with_an_empty_axis(index, shape):
    with pytest.raises(DimensionError):
        index(np.zeros(shape), np.zeros(shape))
