"""The library's scalar contract as a property: every count and positive-real
argument either works or raises an ``HsreconError``.

Each entry of the table is a small legal call on a 10x10x3 cube with one
scalar argument left open. The property puts in its place a value that is
fractional, not finite, negative, zero, one past its upper bound, a bool,
a string or None, and asserts the call returns or raises an
``HsreconError``. Tier-1 turns RuntimeWarnings into errors, so a value
that overflows instead of being rejected fails too. No value is a large
integer, so no call allocates more than a few MiB; ``SolverParams`` is
only constructed, never run.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_smooth_cube

from hsrecon import imaging, patches, solver, tensors
from hsrecon.errors import HsreconError

ROWS, COLS, BANDS = 10, 10, 3
CUBE = make_smooth_cube(ROWS, COLS, BANDS, seed=3)
MASK = imaging.generate_mask(ROWS, COLS, 0.5, 1)
SYS = imaging.SystemModel.default(MASK, BANDS)
MEMBERS = patches.match_groups(CUBE, patches.plan_grid(ROWS, COLS, 3, 3), 4, 2)
STACK = patches.gather_groups(CUBE, MEMBERS[:2], 3)[0]  # (2, 9, 3, 4): full core (9, 3, 4)
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
    "plan_grid.s": (lambda v: patches.plan_grid(ROWS, COLS, v, 2), min(ROWS, COLS)),
    "plan_grid.step": (lambda v: patches.plan_grid(ROWS, COLS, 3, v), None),
    "match_blocks.s": (lambda v: patches.match_blocks(CUBE, (0, 0), v, 4, 2), min(ROWS, COLS)),
    "match_blocks.k": (lambda v: patches.match_blocks(CUBE, (0, 0), 3, v, 2), None),
    "match_blocks.window": (lambda v: patches.match_blocks(CUBE, (0, 0), 3, 4, v), None),
    "match_groups.s": (
        lambda v: patches.match_groups(CUBE, patches.PatchGrid(v, (0,), (0,)), 4, 2),
        min(ROWS, COLS),
    ),
    "match_groups.k": (
        lambda v: patches.match_groups(CUBE, patches.plan_grid(ROWS, COLS, 3, 3), v, 2), None
    ),
    "match_groups.window": (
        lambda v: patches.match_groups(CUBE, patches.plan_grid(ROWS, COLS, 3, 3), 4, v), None
    ),
    "gather_groups.s": (lambda v: patches.gather_groups(CUBE, MEMBERS, v), min(ROWS, COLS)),
    "coverage_counts.s": (
        lambda v: patches.coverage_counts(MEMBERS, v, CUBE.shape), min(ROWS, COLS)
    ),
    "hosvd_batch.ranks[0]": (lambda v: tensors.hosvd_batch(STACK, (v, 1, 1)), 9),
    "hosvd_batch.ranks[1]": (lambda v: tensors.hosvd_batch(STACK, (1, v, 1)), 3),
    "hosvd_batch.ranks[2]": (lambda v: tensors.hosvd_batch(STACK, (1, 1, v)), 4),
    "unfold.mode": (lambda v: tensors.unfold(TENSOR, v), 3),
    "fold.mode": (lambda v: tensors.fold(tensors.unfold(TENSOR, 1), v, TENSOR.shape), 3),
    "mode_n_product.mode": (lambda v: tensors.mode_n_product(TENSOR, np.eye(3), v), 3),
    "shrink_core.tau": (lambda v: solver.shrink_core(ONE, ONE, v), None),
    "update_weights.c": (lambda v: solver.update_weights(ONE, v), None),
    "cg_solve_image.tau": (
        lambda v: solver.cg_solve_image(CUBE, np.ones_like(CUBE), SYS, v, cg_max_iter=5), None
    ),
    "cg_solve_image.cg_tol": (
        lambda v: solver.cg_solve_image(CUBE, np.ones_like(CUBE), SYS, 1.0, v, 5), None
    ),
    "cg_solve_image.cg_max_iter": (
        lambda v: solver.cg_solve_image(CUBE, np.ones_like(CUBE), SYS, 1.0, 1e-6, v), None
    ),
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
