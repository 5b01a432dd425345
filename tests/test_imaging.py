import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_solve

from hsrecon import imaging, solver
from hsrecon.errors import DataError, DimensionError, UsageError
from hsrecon.imaging import (
    CASSI,
    DCCHI,
    Measurement,
    SystemModel,
    adjoint,
    apply_normal_operator,
    cassi_forward,
    forward,
    generate_mask,
    pan_forward,
    ridge_factor,
    ridge_solve,
)


def _dcchi_system(rng, rows=8, cols=8, bands=4):
    mask = generate_mask(rows, cols, 0.5, 3)
    return SystemModel(mask, bands, mode=DCCHI)


class TestGenerateMask:
    def test_p_zero(self):
        assert not np.any(generate_mask(6, 7, 0.0, 1))

    def test_p_one(self):
        assert np.all(generate_mask(6, 7, 1.0, 1) == 1.0)

    def test_p_half_mean(self):
        mask = generate_mask(256, 256, 0.5, 9)
        assert 0.47 <= mask.mean() <= 0.53

    def test_seed_reproducible(self):
        assert np.array_equal(generate_mask(16, 16, 0.5, 4), generate_mask(16, 16, 0.5, 4))

    def test_invalid_p(self):
        with pytest.raises(UsageError):
            generate_mask(4, 4, 1.5, 0)

    def test_negative_seed(self):
        with pytest.raises(UsageError, match="seed"):
            generate_mask(4, 4, 0.5, -1)

    @pytest.mark.parametrize("rows, cols", [(10**30, 10), (10, 10**30)])
    def test_mask_numpy_cannot_size(self, rows, cols):
        with pytest.raises(UsageError, match="cannot size"):
            generate_mask(rows, cols, 0.5, 1)

    @pytest.mark.parametrize(
        "field, args",
        [("rows", (-2, 4, 0.5, 0)), ("rows", (4.5, 4, 0.5, 0)), ("cols", (4, 0, 0.5, 0)),
         ("seed", (4, 4, 0.5, 1.5))],
    )
    def test_sizes_and_seed_must_be_integers(self, field, args):
        with pytest.raises(UsageError, match=field):
            generate_mask(*args)


class TestForward:
    def test_single_band_identity(self, rng):
        f = rng.random((6, 6, 1))
        sys = SystemModel(np.ones((6, 6)), 1)
        np.testing.assert_array_equal(cassi_forward(f, sys), f[:, :, 0])

    def test_single_voxel_dispersed(self):
        f = np.zeros((6, 5, 3))
        f[2, 1, 2] = 1.0
        sys = SystemModel(np.ones((6, 5)), 3)
        y = cassi_forward(f, sys)
        expect = np.zeros((8, 5))
        expect[2 + 2, 1] = 1.0
        np.testing.assert_array_equal(y, expect)

    def test_output_shape_256(self):
        sys = SystemModel(np.ones((256, 256)), 31)
        f = np.zeros((256, 256, 31))
        assert cassi_forward(f, sys).shape == (286, 256)

    def test_dim_mismatch(self, rng):
        sys = SystemModel(np.ones((6, 6)), 3)
        with pytest.raises(DimensionError):
            cassi_forward(rng.random((5, 6, 3)), sys)

    def test_pan_constant(self):
        sys = SystemModel(np.ones((4, 4)), 2, mode=DCCHI)
        f = np.full((4, 4, 2), 0.5)
        np.testing.assert_allclose(pan_forward(f, sys), 1.0)

    def test_pan_zero_cube(self):
        sys = SystemModel(np.ones((4, 4)), 2, mode=DCCHI)
        assert not np.any(pan_forward(np.zeros((4, 4, 2)), sys))

    def test_pan_weighted_sum_oracle(self, rng):
        f = rng.random((4, 4, 3))
        sys = SystemModel(np.ones((4, 4)), 3, DCCHI)
        expect = f[:, :, 0] + f[:, :, 1] + f[:, :, 2]
        np.testing.assert_allclose(pan_forward(f, sys), expect, rtol=1e-14)

    def test_pan_opposite_infinities(self):
        # the linear maps skip the finite scan: +inf + -inf is NaN, with no
        # bare RuntimeWarning
        sys = SystemModel(np.ones((1, 2)), 2, DCCHI)
        got = pan_forward(np.array([[[np.inf, -np.inf], [np.inf, 1.0]]]), sys)
        assert np.isnan(got[0, 0]) and got[0, 1] == np.inf

    def test_pan_requires_dcchi(self, rng):
        sys = SystemModel(np.ones((4, 4)), 2)
        with pytest.raises(UsageError):
            pan_forward(rng.random((4, 4, 2)), sys)

    def test_mode_contract(self, rng):
        f = rng.random((4, 4, 2))
        assert forward(f, SystemModel(np.ones((4, 4)), 2)).pan is None
        assert forward(f, SystemModel(np.ones((4, 4)), 2, mode=DCCHI)).pan is not None

    def test_linearity(self, rng):
        sys = _dcchi_system(rng)
        f1, f2 = rng.random((8, 8, 4)), rng.random((8, 8, 4))
        a, b = 1.7, -0.4
        lhs = forward(a * f1 + b * f2, sys)
        y1, y2 = forward(f1, sys), forward(f2, sys)
        np.testing.assert_allclose(lhs.cassi, a * y1.cassi + b * y2.cassi, rtol=1e-12)
        np.testing.assert_allclose(lhs.pan, a * y1.pan + b * y2.pan, rtol=1e-12)

    def test_dcchi_cassi_plane_matches_cassi_mode(self, rng):
        mask = generate_mask(8, 8, 0.5, 1)
        f = rng.random((8, 8, 4))
        yd = forward(f, SystemModel(mask, 4, mode=DCCHI))
        yc = forward(f, SystemModel(mask, 4))
        np.testing.assert_array_equal(yd.cassi, yc.cassi)


class TestAdjoint:
    def test_zero_measurement(self):
        sys = SystemModel(np.ones((5, 5)), 3)
        y = Measurement(np.zeros((7, 5)))
        assert not np.any(adjoint(y, sys))

    def test_adjoint_identity(self, rng):
        sys = _dcchi_system(rng)
        for _ in range(20):
            f = rng.standard_normal((8, 8, 4))
            y = Measurement(
                rng.standard_normal((sys.meas_rows, 8)), rng.standard_normal((8, 8))
            )
            yf = forward(f, sys)
            lhs = np.sum(yf.cassi * y.cassi) + np.sum(yf.pan * y.pan)
            rhs = np.sum(f * adjoint(y, sys))
            ynorm = np.sqrt(np.sum(y.cassi**2) + np.sum(y.pan**2))
            assert abs(lhs - rhs) / (np.linalg.norm(f.ravel()) * ynorm) <= 1e-12

    def test_single_band_identity(self, rng):
        sys = SystemModel(np.ones((5, 5)), 1)
        y = Measurement(rng.random((5, 5)))
        np.testing.assert_array_equal(adjoint(y, sys)[:, :, 0], y.cassi)

    def test_dim_mismatch(self):
        sys = SystemModel(np.ones((5, 5)), 3)
        with pytest.raises(DimensionError):
            adjoint(Measurement(np.zeros((5, 5))), sys)

    @pytest.mark.parametrize("pan", [np.ones((8, 8)), np.ones((3, 3)), np.full((8, 8), np.nan)])
    def test_cassi_system_rejects_a_pan_plane(self, pan):
        sys = SystemModel(generate_mask(8, 8, 0.5, 3), 4)
        with pytest.raises(DimensionError, match="pan plane"):
            adjoint(Measurement(np.zeros((sys.meas_rows, 8)), pan), sys)


class TestNormalOperator:
    def test_matches_composition(self, rng):
        sys = _dcchi_system(rng)
        f = rng.random((8, 8, 4))
        direct = apply_normal_operator(f, sys)
        composed = adjoint(forward(f, sys), sys)
        np.testing.assert_allclose(direct, composed, rtol=1e-13)

    def test_zero_cube(self, rng):
        sys = _dcchi_system(rng)
        assert not np.any(apply_normal_operator(np.zeros((8, 8, 4)), sys))

    def test_symmetric(self, rng):
        sys = _dcchi_system(rng)
        f1, f2 = rng.standard_normal((8, 8, 4)), rng.standard_normal((8, 8, 4))
        lhs = np.sum(apply_normal_operator(f1, sys) * f2)
        rhs = np.sum(f1 * apply_normal_operator(f2, sys))
        assert abs(lhs - rhs) / abs(lhs) <= 1e-12

    def test_positive_semidefinite(self, rng):
        sys = _dcchi_system(rng)
        for _ in range(5):
            f = rng.standard_normal((8, 8, 4))
            assert np.sum(f * apply_normal_operator(f, sys)) >= 0.0


class TestSystemModel:
    @pytest.mark.parametrize("mode", [None, CASSI, DCCHI])
    def test_default_is_the_constructor(self, mode):
        mask = generate_mask(5, 4, 0.5, 2)
        sys = SystemModel.default(mask, 3) if mode is None else SystemModel.default(mask, 3, mode)
        assert (sys.bands, sys.mode) == (3, mode or CASSI)
        assert sys.mask.tobytes() == mask.tobytes()

    def test_rejects_non_binary_mask(self):
        with pytest.raises(DataError):
            SystemModel(np.full((2, 2), 0.5), 2)

    def test_rejects_empty_mask(self):
        with pytest.raises(DimensionError):
            SystemModel(np.ones((0, 4)), 2)

    @pytest.mark.parametrize("mode", [np.ones(3), None, 1], ids=repr)
    def test_rejects_unknown_mode(self, mode):
        with pytest.raises(UsageError, match="mode"):
            SystemModel(np.ones((2, 2)), 3, mode=mode)

    def test_rejects_band_count_numpy_cannot_size(self):
        # 4 x 4 x bands float64 samples: the largest count whose bytes fit in intp passes
        top = np.iinfo(np.intp).max // (16 * 8)
        assert SystemModel(np.ones((4, 4)), top).bands == top
        for bands in (top + 1, 10**20):
            with pytest.raises(UsageError, match="bands"):
                SystemModel(np.ones((4, 4)), bands)

    def test_rows_follow_bands(self):
        sys = SystemModel(np.ones((5, 3)), np.int64(4), DCCHI)
        assert (sys.bands, type(sys.bands), sys.meas_rows) == (4, int, 8)


@st.composite
def _systems(draw, max_rows=6, max_cols=5, max_bands=4):
    """Small systems: a zero, half or full random mask, any band count, either mode."""
    rows, cols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SystemModel(
        mask=(rng.random((rows, cols)) < draw(st.sampled_from([0.0, 0.5, 1.0]))).astype(float),
        bands=draw(st.integers(1, max_bands)),
        mode=draw(st.sampled_from([CASSI, DCCHI])),
    )


class TestAdjointProperty:
    @settings(max_examples=100, deadline=None)
    @given(sys=_systems(), seed=st.integers(0, 2**32 - 1))
    def test_adjoint_identity_on_random_systems(self, sys, seed):
        rng = np.random.default_rng(seed)
        rows, cols = sys.mask.shape
        f = rng.standard_normal((rows, cols, sys.bands))
        pan = rng.standard_normal((rows, cols)) if sys.mode == DCCHI else None
        y = Measurement(rng.standard_normal((sys.meas_rows, cols)), pan)
        yf = forward(f, sys)
        lhs = np.sum(yf.cassi * y.cassi)
        ynorm2 = np.sum(y.cassi**2)
        if pan is not None:
            lhs += np.sum(yf.pan * pan)
            ynorm2 += np.sum(pan**2)
        rhs = np.sum(f * adjoint(y, sys))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(f) * np.sqrt(ynorm2)


class TestRidgeSolve:
    @settings(max_examples=80, deadline=None)
    @given(
        sys=_systems(),
        rho=st.sampled_from([2.0, 0.2, solver.INIT_RIDGE]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_solve(self, sys, rho, seed):
        # rho = 2 tau for tau = 1 (the default) and 0.1, and the initial ridge
        b = np.random.default_rng(seed).standard_normal(sys.mask.shape + (sys.bands,))
        expect = dense_solve(sys, rho, b)
        got = ridge_solve(ridge_factor(sys, rho), b)
        assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)

    @pytest.mark.parametrize("mode", [CASSI, DCCHI])
    @pytest.mark.parametrize("rho", [2.0, solver.INIT_RIDGE])
    def test_matches_tight_cg_at_desk_scale(self, rng, mode, rho):
        sys = SystemModel(generate_mask(64, 64, 0.5, 42), 8, mode=mode)
        b = adjoint(forward(rng.random((64, 64, 8)), sys), sys)
        expect = solver.cg_solve_image(b, np.ones(b.shape), sys, rho / 2)
        got = ridge_solve(ridge_factor(sys, rho), b)
        assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)

    def test_zero_mask_scales_by_rho(self, rng):
        # Phi^T Phi is the pan term alone; with no pan it is zero
        sys = SystemModel(np.zeros((4, 3)), 2)
        b = rng.random((4, 3, 2))
        np.testing.assert_allclose(ridge_solve(ridge_factor(sys, 0.5), b), b / 0.5, rtol=1e-15)

    def test_factor_reused_across_solves(self, rng):
        sys = _dcchi_system(rng)
        fac = ridge_factor(sys, 0.2)
        b1, b2 = rng.random((8, 8, 4)), rng.random((8, 8, 4))
        first = ridge_solve(fac, b1)
        ridge_solve(fac, b2)
        assert ridge_solve(fac, b1).tobytes() == first.tobytes()

    @pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_rho(self, rng, rho):
        with pytest.raises(UsageError):
            ridge_factor(_dcchi_system(rng), rho)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rhs(self, rng, bad):
        fac = ridge_factor(_dcchi_system(rng), 1.0)
        b = np.zeros((8, 8, 4))
        b[3, 2, 1] = bad
        with pytest.raises(DataError):
            ridge_solve(fac, b)

    def test_rejects_wrong_shape(self, rng):
        with pytest.raises(DimensionError):
            ridge_solve(ridge_factor(_dcchi_system(rng), 1.0), np.zeros((8, 8, 3)))
