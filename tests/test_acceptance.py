"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. The end-to-end criteria share one desk-scale scene (64x64x8
nonnegative Tucker cube, rank (6, 6, 3), seed 42).
"""
import itertools

import numpy as np
import pytest

from conftest import make_smooth_cube, make_tucker_scene
from oracles import dense_solve

from hsrecon import fileio, imaging, metrics, patches, solver, tensors
from hsrecon.imaging import DCCHI, Measurement, SystemModel
from hsrecon.solver import INIT_RIDGE, SolverParams
from hsrecon.tensors import hosvd, tucker_reconstruct

SCENE_SEED = 42
DESK_PARAMS = dict(s=5, step=4, k=20, window=10, max_iter=60)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def desk_scene():
    f = make_tucker_scene(seed=SCENE_SEED)
    mask = imaging.generate_mask(64, 64, 0.5, SCENE_SEED)
    return f, mask


def _run_cassi(desk_scene):
    f, mask = desk_scene
    sys = SystemModel(mask, 8)
    y = imaging.forward(f, sys)
    f0 = imaging.ridge_project(imaging.ridge_factor(sys, INIT_RIDGE), y, np.zeros(f.shape))
    residuals = {}
    rec = solver.reconstruct(
        y,
        sys,
        SolverParams(**DESK_PARAMS),
        progress=lambda it, res, sec: residuals.__setitem__(it, res),
    )
    return f0, rec, residuals


@pytest.fixture(scope="module")
def cassi_run(desk_scene):
    return _run_cassi(desk_scene)


def test_criterion_1_adjoint_identity(rng):
    mask = imaging.generate_mask(8, 8, 0.5, 5)
    sys = SystemModel(mask, 4, mode=DCCHI)
    worst = 0.0
    for _ in range(20):
        f = rng.standard_normal((8, 8, 4))
        y = Measurement(
            rng.standard_normal((sys.meas_rows, 8)), rng.standard_normal((8, 8))
        )
        yf = imaging.forward(f, sys)
        lhs = np.sum(yf.cassi * y.cassi) + np.sum(yf.pan * y.pan)
        rhs = np.sum(f * imaging.adjoint(y, sys))
        ynorm = np.sqrt(np.sum(y.cassi**2) + np.sum(y.pan**2))
        worst = max(worst, abs(lhs - rhs) / (np.linalg.norm(f.ravel()) * ynorm))
    _report(1, worst <= 1e-12, f"max adjoint gap {worst:.2e} <= 1e-12")


def test_criterion_2_hosvd_round_trip(rng):
    # each random shape runs through hosvd and, as a stack of three, through
    # the batched HOSVD kernel at full widths and the rebuild kernel the
    # solver uses
    worst_rec, worst_orth = 0.0, 0.0
    for _ in range(50):
        dims = tuple(int(rng.integers(1, hi + 1)) for hi in (25, 8, 45))
        stack = rng.standard_normal((3,) + dims)
        tf = hosvd(stack[0])
        core, factors = tensors._hosvd(stack, lambda lams: [lam.shape[1] for lam in lams])
        pairs = [(stack[0], tucker_reconstruct(tf))]
        pairs += zip(stack, tensors._mode_products_batch(core, factors))
        for t, rec in pairs:
            denom = max(np.linalg.norm(t.ravel()), 1e-300)
            worst_rec = max(worst_rec, np.linalg.norm((rec - t).ravel()) / denom)
        for u in list(tf.factors) + [u for stack_u in factors for u in stack_u]:
            gram = u.T @ u
            worst_orth = max(
                worst_orth, np.max(np.abs(gram - np.eye(gram.shape[0])))
            )
    ok = worst_rec <= 1e-8 and worst_orth <= 1e-10
    _report(2, ok, f"recon err {worst_rec:.2e} <= 1e-8, orth {worst_orth:.2e} <= 1e-10")


def test_criterion_3_shrinkage_oracle(rng):
    worst = 0.0
    for _ in range(1000):
        g_hat = float(rng.uniform(-2, 2))
        w = float(rng.uniform(1e-3, 1.5))
        tau = float(rng.uniform(0.1, 5.0))
        got = float(
            solver.shrink_core(
                np.full((1, 1, 1), g_hat), np.full((1, 1, 1), w), tau
            )[0, 0, 0]
        )
        # grid search step 1e-5 between 0 and g_hat, then local refinement
        lo, hi = min(0.0, g_hat) - 1e-4, max(0.0, g_hat) + 1e-4
        grid = np.arange(lo, hi, 1e-5)
        obj = tau * (g_hat - grid) ** 2 + w * np.abs(grid)
        best = grid[np.argmin(obj)]
        fine = np.arange(best - 2e-5, best + 2e-5, 1e-7)
        obj = tau * (g_hat - fine) ** 2 + w * np.abs(fine)
        oracle = float(fine[np.argmin(obj)])
        worst = max(worst, abs(got - oracle))
    _report(3, worst <= 1e-4, f"max |shrink - oracle| {worst:.2e} <= 1e-4")


def test_criterion_4_cg_vs_dense_oracle(rng):
    # CG with per-voxel weights, and the exact step reconstruct uses, for
    # both modes, at rho = 2 tau and at the initial ridge, on the right-hand
    # side Phi^T y + rho z of random planes y and a random cube z
    mask = imaging.generate_mask(6, 6, 0.5, 11)
    sys = SystemModel(mask, 3)
    counts = 0.5 + rng.random((6, 6, 3))
    tau = 1.0
    rhs = rng.random((6, 6, 3))
    expect = dense_solve(sys, 2.0 * tau * counts, rhs)
    got = solver.cg_solve_image(rhs, counts, sys, tau)
    cg_err = np.linalg.norm(got - expect) / np.linalg.norm(expect)
    exact_err = 0.0
    for mode in (imaging.CASSI, DCCHI):
        sys = SystemModel(imaging.generate_mask(7, 5, 0.5, 12), 4, mode)
        pan = rng.standard_normal((7, 5)) if mode == DCCHI else None
        y = Measurement(rng.standard_normal((sys.meas_rows, 5)), pan)
        z = rng.standard_normal((7, 5, 4))
        for rho in (2.0 * tau, INIT_RIDGE):
            expect = dense_solve(sys, rho, imaging.adjoint(y, sys) + rho * z)
            got = imaging.ridge_project(imaging.ridge_factor(sys, rho), y, z)
            err = np.linalg.norm(got - expect) / np.linalg.norm(expect)
            exact_err = max(exact_err, err)
    ok = cg_err <= 1e-6 and exact_err <= 1e-10
    _report(
        4,
        ok,
        f"relative error vs dense solve: CG {cg_err:.2e} <= 1e-6, "
        f"exact {exact_err:.2e} <= 1e-10",
    )


def test_criterion_5_aggregation_exactness(rng):
    # the per-group aggregate, and the gather and scatter kernels the solver uses
    f = rng.random((20, 20, 4))
    grid = patches.plan_grid(20, 20, 5, 4)
    groups = []
    members = []
    for anchor in itertools.product(grid.rows, grid.cols):
        members.append(patches.match_blocks(f, anchor, 5, 6, 4))
        groups.append((members[-1], patches.build_group(f, members[-1], 5)))
    total, counts = patches.aggregate(groups, f.shape)
    origins, (lo,) = patches._band_plan(np.array(members), f.shape, [slice(None)])
    idx = patches._voxel_indices(origins, patches._block_offsets(5, f.shape))
    band = np.bincount(idx.ravel(), weights=np.take(f.ravel()[lo:], idx).ravel())
    batch_total = np.zeros(f.size)
    batch_total[lo : lo + band.size] = band
    batch_total = batch_total.reshape(f.shape)
    plane = patches.coverage_counts(np.array(members), 5, (20, 20))
    batch_counts = np.broadcast_to(plane, f.shape)
    cov_ok = bool(np.all(counts >= 1.0)) and np.array_equal(batch_counts, counts)
    err = max(
        np.max(np.abs(t - counts * f)) / np.max(np.abs(counts * f))
        for t in (total, batch_total)
    )
    ok = cov_ok and err <= 1e-12
    _report(5, ok, f"sum==counts*f err {err:.2e} <= 1e-12, coverage {cov_ok}")


def test_criterion_6_end_to_end(desk_scene, cassi_run):
    f, _ = desk_scene
    f0, rec, residuals = cassi_run
    psnr0 = metrics.psnr(f, np.clip(f0, 0.0, 1.0))
    psnr_final = metrics.psnr(f, rec)
    gain = psnr_final - psnr0
    ratio = residuals[60] / residuals[1]
    ok = gain >= 2.0 and ratio <= 0.5
    _report(
        6,
        ok,
        f"PSNR {psnr0:.2f} -> {psnr_final:.2f} dB (gain {gain:.2f} >= 2), "
        f"residual ratio {ratio:.3f} <= 0.5",
    )


def test_criterion_7_dcchi_dominance(desk_scene, cassi_run):
    f, mask = desk_scene
    _, rec_cassi, _ = cassi_run
    sys = SystemModel(mask, 8, mode=DCCHI)
    y = imaging.forward(f, sys)
    rec_dcchi = solver.reconstruct(y, sys, SolverParams(**DESK_PARAMS))
    psnr_c = metrics.psnr(f, rec_cassi)
    psnr_d = metrics.psnr(f, rec_dcchi)
    ok = psnr_d >= psnr_c + 1.0
    _report(7, ok, f"DCCHI {psnr_d:.2f} dB >= CASSI {psnr_c:.2f} dB + 1")


def test_criterion_8_metric_sanity(rng):
    ref = rng.random((16, 16, 3))
    ok = (
        metrics.psnr(ref, ref) == 100.0
        and metrics.ssim(ref, ref) == 1.0
        and metrics.rmse(ref, ref) == 0.0
        and metrics.ergas(ref, ref) == 0.0
    )
    offset = abs(metrics.psnr(ref * 0.5, ref * 0.5 + 0.1) - 20.0)
    const = np.stack([np.full((8, 8), 0.4), np.full((8, 8), 0.7)], axis=2)
    scaled = abs(metrics.ergas(const, 1.1 * const) - 10.0)
    ok = ok and offset <= 1e-9 and scaled <= 1e-9
    _report(
        8,
        ok,
        f"identity values exact, psnr-offset dev {offset:.1e}, "
        f"ergas-scale dev {scaled:.1e}",
    )


def test_criterion_9_determinism(desk_scene, cassi_run, tmp_path):
    _, rec_a, _ = cassi_run
    _, rec_b, _ = _run_cassi(desk_scene)
    pa, pb = tmp_path / "a.hsc", tmp_path / "b.hsc"
    fileio.write_cube(rec_a, pa)
    fileio.write_cube(rec_b, pb)
    ok = rec_a.tobytes() == rec_b.tobytes() and pa.read_bytes() == pb.read_bytes()
    _report(9, ok, "repeat run bitwise identical (arrays and files)")


def test_accelerated_loop_gain(desk_scene, cassi_run):
    # not a criterion: holds the momentum's gain at the desk scale. The plain
    # alternating loop read 20.38 dB (CASSI, 60 iterations) and 29.83 dB
    # (DCCHI, 20 iterations); the accelerated one 28.11 and 44.72 dB.
    f, mask = desk_scene
    _, rec_cassi, _ = cassi_run
    sys = SystemModel(mask, 8, mode=DCCHI)
    y = imaging.forward(f, sys)
    rec_dcchi = solver.reconstruct(y, sys, SolverParams(**{**DESK_PARAMS, "max_iter": 20}))
    psnr_c, psnr_d = metrics.psnr(f, rec_cassi), metrics.psnr(f, rec_dcchi)
    assert psnr_c >= 25.0, f"CASSI after 60 iterations: {psnr_c:.2f} dB < 25"
    assert psnr_d >= 40.0, f"DCCHI after 20 iterations: {psnr_d:.2f} dB < 40"


@pytest.mark.parametrize(
    "scene, mode, floor",
    [("tucker", imaging.CASSI, 26.8), ("tucker", DCCHI, 39.0),
     ("smooth", imaging.CASSI, 15.0), ("smooth", DCCHI, 38.3)],
)
def test_noisy_measurement_quality(desk_scene, scene, mode, floor):
    # not a criterion: holds the loop's PSNR after 60 iterations on
    # measurements with Gaussian noise of sigma 0.05, about 1 dB under what
    # it reads (27.85, 40.03, 16.09 and 39.34 dB), so a loop that fits the
    # noise fails here
    f, mask = desk_scene
    if scene == "smooth":
        f = make_smooth_cube(64, 64, 8, seed=5)
    sys = SystemModel(mask, 8, mode=mode)
    y = imaging.forward(f, sys)
    rng = np.random.default_rng(7)
    cassi = y.cassi + 0.05 * rng.standard_normal(y.cassi.shape)
    pan = None if y.pan is None else y.pan + 0.05 * rng.standard_normal(y.pan.shape)
    rec = solver.reconstruct(Measurement(cassi, pan), sys, SolverParams(**DESK_PARAMS))
    value = metrics.psnr(f, rec)
    assert value >= floor, f"{scene} scene, {mode}, sigma 0.05: {value:.2f} dB < {floor}"
