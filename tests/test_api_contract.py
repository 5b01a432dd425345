"""The library's argument contract: every count, positive-real and array
argument either works or raises an ``HsreconError``.

Scalars, a property over ``_TABLE``: each entry is a small legal call on
a 10x10x3 cube with one scalar argument left open. The property puts in its place a value that is
fractional, not finite, negative, zero, one past its upper bound, a bool,
a string or None, and asserts the call returns or raises an
``HsreconError``. Tier-1 turns RuntimeWarnings into errors, so a value
that overflows instead of being rejected fails too. No value is a large
integer, so no call allocates more than a few MiB; the property only
constructs ``SolverParams``.

Settings, a table, ``_RUNS``: each row runs ``reconstruct`` (CASSI,
``make_smooth_cube`` seed 1, mask seed 0) with one ``SolverParams`` field
given as a narrow NumPy scalar (``int8``, ``uint8`` for ``s``, ``float16``)
or, for ``tau`` and ``c``, a ``Fraction``, and must give the output bytes
and the ``progress`` call count of the same value given as a Python number.

Arrays, a table, ``_ARRAYS``: each row is a small legal call on a 12x12x3
cube with one array argument left open, and a valid value for it. Each
row is called with ten variants of that value: complex, numeric strings,
an object array of ``"x"``, 0-d, one axis too many, a zero-length first
axis, a NaN, an infinity, a Fortran-order copy and a view with negative
strides. Every call must return or raise an ``HsreconError``, under the
same warning filter, and the last two must give bitwise the output of a
C-contiguous copy.

Size tuples, a table, ``_SIZES``: each row is a small legal call on the
10x10x3 cube with one tuple of sizes (or an anchor) left open, and a
valid tuple for it. Each row is called with a tuple one entry short, one
entry long, None and a scalar, which must raise ``DimensionError``, and
with a negative, a float and a bool first entry, which must raise
``UsageError``.
"""
import dataclasses
import hashlib
import itertools
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_smooth_cube

from hsrecon import color, fileio, imaging, metrics, patches, solver, tensors
from hsrecon.errors import (
    DataError,
    DimensionError,
    HsreconError,
    UsageError,
    check_array,
    check_sizes,
)


def _members(cube):
    """Every group of the cube's stride-3 grid (s 3, k 4, window 2), as (g, k, 2)."""
    grid = patches.plan_grid(cube.shape[0], cube.shape[1], 3, 3)
    anchors = itertools.product(grid.rows, grid.cols)
    return np.array([patches.match_blocks(cube, a, 3, 4, 2) for a in anchors])


ROWS, COLS, BANDS = 10, 10, 3
CUBE = make_smooth_cube(ROWS, COLS, BANDS, seed=3)
MASK = imaging.generate_mask(ROWS, COLS, 0.5, 1)
SYS = imaging.SystemModel(MASK, BANDS)
MEMBERS = _members(CUBE)
TENSOR = CUBE[:3, :4, :]
ONE = np.ones((2, 2, 2))


# Name -> (call with the open argument, its upper bound or None).
_TABLE = {
    **{f"SolverParams.{name}": (lambda v, name=name: solver.SolverParams(**{name: v}), None)
       for name in ("tau", "c", "s", "k", "window", "max_iter", "rematch_every")},
    "SolverParams.step": (lambda v: solver.SolverParams(step=v), solver.SolverParams().s),
    "generate_mask.rows": (lambda v: imaging.generate_mask(v, COLS, 0.5, 1), None),
    "generate_mask.cols": (lambda v: imaging.generate_mask(ROWS, v, 0.5, 1), None),
    "generate_mask.p": (lambda v: imaging.generate_mask(ROWS, COLS, v, 1), 1),
    "generate_mask.seed": (lambda v: imaging.generate_mask(ROWS, COLS, 0.5, v), None),
    "SystemModel.default.bands": (lambda v: imaging.SystemModel.default(MASK, v), None),
    "SystemModel.bands": (lambda v: imaging.SystemModel(MASK, v), None),
    "ridge_factor.rho": (lambda v: imaging.ridge_factor(SYS, v), None),
    "plan_grid.rows": (lambda v: patches.plan_grid(v, COLS, 3, 3), None),
    "plan_grid.cols": (lambda v: patches.plan_grid(ROWS, v, 3, 3), None),
    "plan_grid.s": (lambda v: patches.plan_grid(ROWS, COLS, v, 2), min(ROWS, COLS)),
    "plan_grid.step": (lambda v: patches.plan_grid(ROWS, COLS, 3, v), None),
    "match_blocks.s": (lambda v: patches.match_blocks(CUBE, (0, 0), v, 4, 2), min(ROWS, COLS)),
    "match_blocks.k": (lambda v: patches.match_blocks(CUBE, (0, 0), 3, v, 2), None),
    "match_blocks.window": (lambda v: patches.match_blocks(CUBE, (0, 0), 3, 4, v), None),
    "coverage_counts.s": (
        lambda v: patches.coverage_counts(MEMBERS, v, (ROWS, COLS)), min(ROWS, COLS)
    ),
    "unfold.mode": (lambda v: tensors.unfold(TENSOR, v), 3),
    "fold.mode": (lambda v: tensors.fold(tensors.unfold(TENSOR, 1), v, TENSOR.shape), 3),
    "mode_n_product.mode": (lambda v: tensors.mode_n_product(TENSOR, np.eye(3), v), 3),
    "shrink_core.tau": (lambda v: solver.shrink_core(ONE, ONE, v), None),
    "update_weights.c": (lambda v: solver.update_weights(ONE, v), None),
    "cg_solve_image.tau": (lambda v: solver.cg_solve_image(CUBE, np.ones_like(CUBE), SYS, v), None),
}

_BAD = [2.5, float("nan"), float("inf"), float("-inf"), -1, 0, True, False, "1", None]


@pytest.mark.parametrize("name", sorted(_TABLE))
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_scalar_argument_works_or_raises_a_package_error(name, data):
    call, high = _TABLE[name]
    values = _BAD if high is None else [*_BAD, high + 1]
    value = data.draw(st.sampled_from(values), label=name)
    try:
        call(value)
    except HsreconError:
        pass


R_SMALL = make_smooth_cube(12, 12, 3, seed=1), dict(s=3, step=2, k=4, window=3, max_iter=3)
R_LARGE = make_smooth_cube(24, 24, 8, seed=1), dict(k=20, window=10, max_iter=2)

# Name -> (scene and its settings, the settings under test, the same as Python numbers).
_RUNS = {
    "tau float16": (R_SMALL, {"tau": np.float16(2**15)}, {"tau": 2.0**15}),
    "tau Fraction": (R_SMALL, {"tau": Fraction(1, 4)}, {"tau": 0.25}),
    "c float16": (R_SMALL, {"c": np.float16(0.125)}, {"c": 0.125}),
    "c Fraction": (R_SMALL, {"c": Fraction(1, 200)}, {"c": 0.005}),
    "s uint8": (R_LARGE, {"s": np.uint8(5)}, {"s": 5}),
    "step int8": (R_SMALL, {"step": np.int8(2)}, {"step": 2}),
    "k int8": (R_LARGE, {"k": np.int8(20)}, {"k": 20}),
    "window int8": (R_SMALL, {"window": np.int8(3)}, {"window": 3}),
    "max_iter int8": (R_SMALL, {"max_iter": np.int8(127)}, {"max_iter": 127}),
    "rematch_every int8": (R_SMALL, {"rematch_every": np.int8(40), "max_iter": 130},
                           {"rematch_every": 40, "max_iter": 130}),
}


def _run(scene, settings) -> tuple[str, int]:
    # The sha256 of reconstruct's output on the scene, and its progress calls.
    cube, base = scene
    system = imaging.SystemModel(imaging.generate_mask(*cube.shape[:2], 0.5, 0), cube.shape[2])
    p, calls = solver.SolverParams(**{**base, **settings}), []
    out = solver.reconstruct(imaging.forward(cube, system), system, p, lambda *a: calls.append(a))
    return hashlib.sha256(out.tobytes()).hexdigest(), len(calls)


@pytest.mark.parametrize("name", list(_RUNS))
def test_setting_runs_as_its_python_value(name):
    scene, settings, same = _RUNS[name]
    assert _run(scene, settings) == _run(scene, same)


A_CUBE = make_smooth_cube(12, 12, 3, seed=3)
A_EST = np.clip(A_CUBE + 0.05 * np.cos(np.arange(A_CUBE.size)).reshape(A_CUBE.shape), 0, 1)
A_MASK = imaging.generate_mask(12, 12, 0.5, 1)
A_SYS = imaging.SystemModel(A_MASK, 3, imaging.DCCHI)
A_MEAS = imaging.forward(A_CUBE, A_SYS)
A_FAC = imaging.ridge_factor(A_SYS, 1.0)
A_MEMBERS = _members(A_CUBE)
A_GROUP = patches.build_group(A_CUBE, A_MEMBERS[0].tolist(), 3)
A_PARAMS = solver.SolverParams(s=3, step=3, k=4, window=2, max_iter=2, rematch_every=1)
A_TF = tensors.hosvd(A_GROUP)
A_CORE = A_TF.core
A_GROUP_MAG = solver.denoise_group(A_GROUP, None, A_PARAMS)[1]
A_WL = np.array([450.0, 550.0, 650.0])


def _written(write, array) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        write(array, Path(d) / "out")
        return (Path(d) / "out").read_bytes()


# Name -> (call with the open argument, a valid value for it).
_ARRAYS = {
    "psnr.ref": (lambda v: metrics.psnr(v, A_EST), A_CUBE),
    "psnr.est": (lambda v: metrics.psnr(A_CUBE, v), A_EST),
    "ssim.ref": (lambda v: metrics.ssim(v, A_EST), A_CUBE),
    "ssim.est": (lambda v: metrics.ssim(A_CUBE, v), A_EST),
    "rmse.ref": (lambda v: metrics.rmse(v, A_EST), A_CUBE),
    "rmse.est": (lambda v: metrics.rmse(A_CUBE, v), A_EST),
    "ergas.ref": (lambda v: metrics.ergas(v, A_EST), A_CUBE),
    "ergas.est": (lambda v: metrics.ergas(A_CUBE, v), A_EST),
    "evaluate.ref": (lambda v: metrics.evaluate(v, A_EST), A_CUBE),
    "evaluate.est": (lambda v: metrics.evaluate(A_CUBE, v), A_EST),
    "SystemModel.mask": (lambda v: imaging.SystemModel(v, 3, imaging.DCCHI), A_MASK),
    "forward.f": (lambda v: imaging.forward(v, A_SYS), A_CUBE),
    "cassi_forward.f": (lambda v: imaging.cassi_forward(v, A_SYS), A_CUBE),
    "pan_forward.f": (lambda v: imaging.pan_forward(v, A_SYS), A_CUBE),
    "adjoint.cassi": (lambda v: imaging.adjoint(imaging.Measurement(v, A_MEAS.pan), A_SYS),
                      A_MEAS.cassi),
    "adjoint.pan": (lambda v: imaging.adjoint(imaging.Measurement(A_MEAS.cassi, v), A_SYS),
                    A_MEAS.pan),
    "apply_normal_operator.f": (lambda v: imaging.apply_normal_operator(v, A_SYS), A_CUBE),
    "ridge_project.cassi": (
        lambda v: imaging.ridge_project(A_FAC, imaging.Measurement(v, A_MEAS.pan), A_EST),
        A_MEAS.cassi,
    ),
    "ridge_project.pan": (
        lambda v: imaging.ridge_project(A_FAC, imaging.Measurement(A_MEAS.cassi, v), A_EST),
        A_MEAS.pan,
    ),
    "ridge_project.z": (lambda v: imaging.ridge_project(A_FAC, A_MEAS, v), A_EST),
    "reconstruct.cassi": (
        lambda v: solver.reconstruct(imaging.Measurement(v, A_MEAS.pan), A_SYS, A_PARAMS),
        A_MEAS.cassi,
    ),
    "reconstruct.pan": (
        lambda v: solver.reconstruct(imaging.Measurement(A_MEAS.cassi, v), A_SYS, A_PARAMS),
        A_MEAS.pan,
    ),
    "cg_solve_image.rhs": (
        lambda v: solver.cg_solve_image(v, np.ones_like(A_CUBE), A_SYS, 1.0),
        A_CUBE,
    ),
    "cg_solve_image.counts": (
        lambda v: solver.cg_solve_image(A_CUBE, v, A_SYS, 1.0),
        np.ones_like(A_CUBE),
    ),
    # The partner array takes the open one's shape, so a 0-d pair reaches the arithmetic.
    "shrink_core.g_hat": (lambda v: solver.shrink_core(v, np.full(np.shape(v), 0.2), 1.0),
                          A_CORE),
    "shrink_core.w": (lambda v: solver.shrink_core(np.full(np.shape(v), 0.3), v, 1.0),
                      np.abs(A_CORE)),
    "update_weights.g": (lambda v: solver.update_weights(v, 0.01), A_CORE),
    "denoise_group.stacked": (lambda v: solver.denoise_group(v, None, A_PARAMS), A_GROUP),
    "denoise_group.core_mag": (lambda v: solver.denoise_group(A_GROUP, v, A_PARAMS),
                               A_GROUP_MAG),
    "unfold.t": (lambda v: tensors.unfold(v, 2), A_CORE),
    "fold.m": (lambda v: tensors.fold(v, 2, A_CORE.shape), tensors.unfold(A_CORE, 2)),
    "mode_n_product.t": (lambda v: tensors.mode_n_product(v, np.eye(3), 2), A_CORE),
    "mode_n_product.a": (lambda v: tensors.mode_n_product(A_CORE, v, 2), np.eye(3)),
    "hosvd.t": (tensors.hosvd, A_GROUP),
    "tucker_reconstruct.core": (
        lambda v: tensors.tucker_reconstruct(tensors.TuckerFactors(v, A_TF.factors)), A_TF.core
    ),
    "tucker_reconstruct.factors": (
        lambda v: tensors.tucker_reconstruct(
            tensors.TuckerFactors(A_CORE, (v, *A_TF.factors[1:]))
        ),
        A_TF.factors[0],
    ),
    "match_blocks.f": (lambda v: patches.match_blocks(v, (0, 0), 3, 4, 2), A_CUBE),
    "build_group.f": (lambda v: patches.build_group(v, [(0, 0), (3, 6)], 3), A_CUBE),
    "aggregate.approx": (
        lambda v: patches.aggregate([(A_MEMBERS[0].tolist(), v)], A_CUBE.shape), A_GROUP
    ),
    "coverage_counts.members": (lambda v: patches.coverage_counts(v, 3, A_CUBE.shape[:2]),
                                A_MEMBERS),
    "rgb_preview.f": (lambda v: color.rgb_preview(v, A_WL), A_CUBE),
    "rgb_preview.wavelengths": (lambda v: color.rgb_preview(A_CUBE, v), A_WL),
    "cmf_at.wavelengths": (color.cmf_at, A_WL),
    "write_cube.cube": (lambda v: _written(fileio.write_cube, v), A_CUBE),
    "write_plane.plane": (lambda v: _written(fileio.write_plane, v), A_MASK),
    "write_ppm.image": (lambda v: _written(color.write_ppm, v), color.rgb_preview(A_CUBE, A_WL)),
}


def _with(valid: np.ndarray, value) -> np.ndarray:
    x = valid.astype(np.float64)
    x.flat[x.size // 2] = value
    return x


_VARIANTS = {
    "complex": lambda v: v + 0j,
    "numeric string": lambda v: v.astype(str),
    "object": lambda v: np.full(v.shape, "x", dtype=object),
    "0-d": lambda v: v.flat[0] + np.zeros((), v.dtype),
    "extra axis": lambda v: v[None],
    "zero-length axis": lambda v: v[:0],
    "nan": lambda v: _with(v, np.nan),
    "inf": lambda v: _with(v, np.inf),
    "fortran": np.asfortranarray,
    "negative stride": lambda v: np.flip(np.flip(v).copy()),
}


def _bits(out):
    # The output as nested lists of comparable leaves, arrays by their bytes.
    if isinstance(out, np.ndarray):
        return [out.dtype.str, out.shape, out.tobytes()]
    if dataclasses.is_dataclass(out):
        return [_bits(getattr(out, f.name)) for f in dataclasses.fields(out)]
    if isinstance(out, (tuple, list)):
        return [_bits(o) for o in out]
    return repr(out)


@pytest.mark.parametrize("variant", list(_VARIANTS))
@pytest.mark.parametrize("name", sorted(_ARRAYS))
def test_array_argument_works_or_raises_a_package_error(name, variant):
    call, valid = _ARRAYS[name]
    value = _VARIANTS[variant](valid)
    try:
        call(value)
    except HsreconError:
        pass


@pytest.mark.parametrize("variant", ["fortran", "negative stride"])
@pytest.mark.parametrize("name", sorted(_ARRAYS))
def test_array_layout_does_not_change_the_output(name, variant):
    call, valid = _ARRAYS[name]
    expect = _bits(call(np.ascontiguousarray(valid)))
    assert _bits(call(_VARIANTS[variant](valid))) == expect


GROUP = [(0, 0), (3, 6)]

# Name -> (call with the open tuple, a valid tuple for it).
_SIZES = {
    "fold.dims": (lambda v: tensors.fold(tensors.unfold(TENSOR, 1), 1, v), TENSOR.shape),
    "aggregate.dims": (
        lambda v: patches.aggregate([(GROUP, patches.build_group(CUBE, GROUP, 3))], v), CUBE.shape
    ),
    "coverage_counts.plane": (lambda v: patches.coverage_counts(MEMBERS, 3, v), (ROWS, COLS)),
    "match_blocks.anchor": (lambda v: patches.match_blocks(CUBE, v, 3, 4, 2), (2, 3)),
}

# Variant -> (the open tuple from the valid one, the error it must raise).
_SIZE_VARIANTS = {
    "too short": (lambda v: v[:-1], DimensionError),
    "too long": (lambda v: (*v, v[-1]), DimensionError),
    "None": (lambda v: None, DimensionError),
    "scalar": (lambda v: v[0], DimensionError),
    "negative": (lambda v: (-1, *v[1:]), UsageError),
    "float": (lambda v: (float(v[0]), *v[1:]), UsageError),
    "bool": (lambda v: (True, *v[1:]), UsageError),
}


@pytest.mark.parametrize("variant", list(_SIZE_VARIANTS))
@pytest.mark.parametrize("name", sorted(_SIZES))
def test_bad_size_tuple_raises_a_package_error(name, variant):
    call, valid = _SIZES[name]
    call(valid)
    make, error = _SIZE_VARIANTS[variant]
    with pytest.raises(error):
        call(make(valid))


def test_check_sizes_rule():
    assert check_sizes("dims", [8, np.int64(8), 3], 3) == (8, 8, 3)
    assert check_sizes("dims", (0, 2), 2, 0) == (0, 2)
    for value in ((192,), (8, 8, 3, 1), 8, None, np.array([8, 8, 3])):
        with pytest.raises(DimensionError, match="dims must hold 3 sizes"):
            check_sizes("dims", value, 3)
    for value in ((8, 8, 3.5), (8, 0, 3), (8, True, 3), (8, "8", 3)):
        with pytest.raises(UsageError, match="dims size"):
            check_sizes("dims", value, 3)


def test_check_array_rule():
    x = np.ones((2, 3))
    assert check_array("x", x, 2) is x  # float64 is not copied
    for value in (np.ones((2, 3), bool), np.ones((2, 3), np.int32), np.ones((2, 3), np.float32)):
        got = check_array("x", value, 2)
        assert got.dtype == np.float64 and np.array_equal(got, value)
    assert check_array("x", 2, None).shape == ()
    bad = [[1.0, 2.0], [3.0]], np.ones(2, complex), np.array(["0.5"]), np.ones(2, "M8[s]"), None
    for value in bad:
        with pytest.raises(UsageError, match="x must be a real array"):
            check_array("x", value, None)
    with pytest.raises(DimensionError, match="x must be 3-D"):
        check_array("x", x, 3)
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match="x contains non-finite"):
            check_array("x", [1.0, value], 1)
        assert np.isnan(check_array("x", [value], 1, finite=False)[0]) == np.isnan(value)
