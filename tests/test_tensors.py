import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsrecon.errors import DataError, DimensionError, UsageError
from hsrecon.tensors import (
    TuckerFactors,
    fold,
    frobenius_norm,
    hosvd,
    hosvd_batch,
    mode_n_product,
    tucker_reconstruct,
    tucker_reconstruct_batch,
    unfold,
)


def test_frobenius_norm_all_ones():
    assert frobenius_norm(np.ones((2, 2, 2))) == pytest.approx(np.sqrt(8.0))


def test_frobenius_norm_zero():
    assert frobenius_norm(np.zeros((3, 4, 2))) == 0.0


def test_frobenius_norm_single_entry():
    assert frobenius_norm(np.full((1, 1, 1), -3.0)) == 3.0


def test_unfold_shapes():
    t = np.zeros((2, 3, 4))
    assert unfold(t, 1).shape == (2, 12)
    assert unfold(t, 2).shape == (3, 8)
    assert unfold(t, 3).shape == (4, 6)


def test_unfold_invalid_mode():
    with pytest.raises(UsageError):
        unfold(np.zeros((2, 2, 2)), 4)


def test_fold_unfold_round_trip(rng):
    t = rng.standard_normal((3, 5, 4))
    for mode in (1, 2, 3):
        assert np.array_equal(fold(unfold(t, mode), mode, t.shape), t)


def test_unfold_mode2_fiber_enumeration():
    # Brute-force oracle: column j of the mode-2 unfolding is the mode-2
    # fiber at (i3, i1) with i3 = j // d1 slowest and i1 = j % d1 fastest
    # (cyclic remaining-mode order 3, 1).
    t = np.arange(1.0, 9.0).reshape(2, 2, 2)
    m = unfold(t, 2)
    d1, _, d3 = t.shape
    for j in range(d3 * d1):
        i3, i1 = divmod(j, d1)
        np.testing.assert_array_equal(m[:, j], t[i1, :, i3])


def test_fold_round_trip_matrix(rng):
    m = rng.standard_normal((3, 8))
    assert np.array_equal(unfold(fold(m, 1, (3, 2, 4)), 1), m)


def test_fold_zero_matrix():
    assert not np.any(fold(np.zeros((2, 6)), 1, (2, 3, 2)))


def test_fold_shape_mismatch():
    with pytest.raises(DimensionError):
        fold(np.zeros((3, 7)), 1, (3, 2, 4))


def test_mode_n_product_identity(rng):
    t = rng.standard_normal((4, 3, 5))
    for mode in (1, 2, 3):
        got = mode_n_product(t, np.eye(t.shape[mode - 1]), mode)
        np.testing.assert_allclose(got, t, rtol=0, atol=1e-14)


def test_mode_n_product_zero_matrix(rng):
    t = rng.standard_normal((4, 3, 5))
    assert not np.any(mode_n_product(t, np.zeros((2, 3)), 2))


def test_mode_n_product_ones_row_sums(rng):
    t = rng.standard_normal((4, 3, 5))
    got = mode_n_product(t, np.ones((1, 5)), 3)
    assert got.shape == (4, 3, 1)
    np.testing.assert_allclose(got[:, :, 0], t.sum(axis=2), rtol=1e-14)


def test_mode_n_product_dim_mismatch(rng):
    with pytest.raises(DimensionError):
        mode_n_product(np.zeros((2, 2, 2)), np.zeros((3, 5)), 1)


def test_hosvd_round_trip(rng):
    t = rng.standard_normal((10, 8, 6))
    tf = hosvd(t)
    rec = tucker_reconstruct(tf)
    assert frobenius_norm(rec - t) / frobenius_norm(t) < 1e-8


def test_hosvd_orthonormal_factors(rng):
    t = rng.standard_normal((7, 5, 9))
    tf = hosvd(t)
    for u in tf.factors:
        gram = u.T @ u
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-10


def test_hosvd_rank_one_core(rng):
    a, b, c = rng.standard_normal(6), rng.standard_normal(5), rng.standard_normal(4)
    t = np.einsum("i,j,k->ijk", a, b, c)
    core = hosvd(t).core
    assert np.count_nonzero(np.abs(core) > 1e-10) == 1


def test_hosvd_zero_tensor():
    tf = hosvd(np.zeros((3, 4, 2)))
    assert not np.any(tf.core)
    for u in tf.factors:
        gram = u.T @ u
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-10


def test_hosvd_rejects_non_finite():
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = np.nan
    with pytest.raises(DataError):
        hosvd(t)


def test_hosvd_energy_preserved(rng):
    t = rng.standard_normal((6, 7, 5))
    tf = hosvd(t)
    assert frobenius_norm(tf.core) == pytest.approx(frobenius_norm(t), rel=1e-10)


def test_hosvd_deterministic(rng):
    t = rng.standard_normal((6, 5, 4))
    a, b = hosvd(t), hosvd(t.copy())
    assert np.array_equal(a.core, b.core)
    for ua, ub in zip(a.factors, b.factors):
        assert np.array_equal(ua, ub)


def test_tucker_reconstruct_identity_factors(rng):
    t = rng.standard_normal((3, 4, 2))
    tf = TuckerFactors(core=t, factors=(np.eye(3), np.eye(4), np.eye(2)))
    np.testing.assert_allclose(tucker_reconstruct(tf), t, rtol=0, atol=1e-14)


def test_tucker_reconstruct_zero_core():
    tf = TuckerFactors(
        core=np.zeros((2, 2, 2)), factors=(np.eye(2), np.eye(2), np.eye(2))
    )
    assert not np.any(tucker_reconstruct(tf))


def test_norm_preserved_under_orthogonal_factor(rng):
    t = rng.standard_normal((5, 6, 4))
    for mode in (1, 2, 3):
        q, _ = np.linalg.qr(rng.standard_normal((t.shape[mode - 1],) * 2))
        got = frobenius_norm(mode_n_product(t, q, mode))
        assert got == pytest.approx(frobenius_norm(t), rel=1e-10)


def test_mode_n_product_composition(rng):
    t = rng.standard_normal((4, 5, 3))
    for mode in (1, 2, 3):
        d = t.shape[mode - 1]
        a = rng.standard_normal((6, d))
        b = rng.standard_normal((2, 6))
        lhs = mode_n_product(mode_n_product(t, a, mode), b, mode)
        rhs = mode_n_product(t, b @ a, mode)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def _assert_batch_matches_hosvd(stack):
    """hosvd_batch against per-tensor hosvd: core, reconstruction, factors.

    hosvd_batch keeps LAPACK's column signs, so each core slice is first
    given the sign that aligns its factor column with hosvd's.
    """
    tf = hosvd_batch(stack)
    rec = tucker_reconstruct_batch(tf)
    for i, t in enumerate(stack):
        ref = hosvd(t)
        scale = max(frobenius_norm(t), 1e-300)
        assert tf.core[i].shape == ref.core.shape
        core = tf.core[i]
        for axis, (u, v) in enumerate(zip(tf.factors, ref.factors)):
            signs = np.sign(np.sum(u[i] * v, axis=0))
            signs[signs == 0] = 1.0
            core = core * np.expand_dims(signs, tuple(a for a in range(3) if a != axis))
        assert frobenius_norm(core - ref.core) / scale <= 1e-8
        assert frobenius_norm(rec[i] - t) / scale <= 1e-8
        for u, v in zip(tf.factors, ref.factors):
            assert u[i].shape == v.shape
            gram = u[i].T @ u[i]
            assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-10


@pytest.mark.parametrize(
    "shape", [(25, 8, 20), (25, 1, 45), (1, 8, 20), (9, 2, 30), (4, 5, 3), (1, 1, 1)]
)
def test_hosvd_batch_matches_hosvd(rng, shape):
    _assert_batch_matches_hosvd(rng.standard_normal((5,) + shape))


def test_hosvd_batch_zero_and_rank_one_groups(rng):
    a, b, c = rng.random(9), rng.random(4), rng.random(12)
    stack = np.stack([np.zeros((9, 4, 12)), np.einsum("i,j,k->ijk", a, b, c)])
    _assert_batch_matches_hosvd(stack)
    assert not np.any(hosvd_batch(stack[:1]).core)


@pytest.mark.parametrize("shape", [(0, 3, 4), (3, 0, 4), (3, 4, 0)])
def test_hosvd_rejects_zero_length_mode(shape):
    with pytest.raises(DimensionError):
        hosvd(np.zeros(shape))
    with pytest.raises(DimensionError):
        hosvd_batch(np.zeros((2,) + shape))


def test_hosvd_batch_empty_stack():
    tf = hosvd_batch(np.zeros((0, 3, 2, 4)))
    assert tf.core.shape == (0, 3, 2, 4)
    assert [u.shape for u in tf.factors] == [(0, 3, 3), (0, 2, 2), (0, 4, 4)]


def test_hosvd_batch_rejects_non_finite_and_bad_ndim():
    t = np.zeros((2, 2, 2, 2))
    t[1, 0, 0, 0] = np.inf
    with pytest.raises(DataError):
        hosvd_batch(t)
    with pytest.raises(DimensionError):
        hosvd_batch(np.zeros((2, 2, 2)))


def test_tucker_reconstruct_batch_rejects_mismatched_factors():
    core = np.zeros((2, 3, 3, 3))
    eye = np.broadcast_to(np.eye(3), (2, 3, 3))
    with pytest.raises(DimensionError):
        tucker_reconstruct_batch(TuckerFactors(core, (eye, eye, eye[:, :, :2])))


def test_tucker_reconstruct_batch_rejects_two_factors():
    eye = np.broadcast_to(np.eye(3), (2, 3, 3))
    with pytest.raises(DimensionError):
        tucker_reconstruct_batch(TuckerFactors(np.zeros((2, 3, 3, 3)), (eye, eye)))


@settings(max_examples=40, deadline=None)
@given(
    dims=st.tuples(
        st.integers(1, 9), st.integers(1, 6), st.integers(1, 12), st.integers(1, 4)
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_hosvd_batch_round_trip_property(dims, seed):
    d1, d2, d3, g = dims
    stack = np.random.default_rng(seed).standard_normal((g, d1, d2, d3))
    _assert_batch_matches_hosvd(stack)


def _full_ranks(shape):
    size = np.prod(shape)
    return tuple(min(d, size // d) for d in shape)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.tuples(
        st.integers(1, 9), st.integers(1, 6), st.integers(1, 12), st.integers(1, 4)
    ),
    low_rank=st.booleans(),
    data=st.data(),
)
def test_hosvd_batch_ranks_keep_the_leading_block(dims, low_rank, data):
    d1, d2, d3, g = dims
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    stack = rng.standard_normal((g, d1, d2, d3))
    if low_rank:  # repeated zero singular values
        stack = np.einsum("gi,gj,gk->gijk", *(rng.standard_normal((g, d)) for d in (d1, d2, d3)))
    ranks = tuple(
        data.draw(st.integers(0, r), label=f"r{n}")
        for n, r in enumerate(_full_ranks((d1, d2, d3)), start=1)
    )
    full = hosvd_batch(stack)
    part = hosvd_batch(stack, ranks)
    for u, v, r in zip(part.factors, full.factors, ranks):
        assert u.shape == (g, v.shape[1], r)
        assert u.tobytes() == np.ascontiguousarray(v[:, :, :r]).tobytes()
    block = full.core[:, : ranks[0], : ranks[1], : ranks[2]]
    assert part.core.shape == block.shape
    assert frobenius_norm(part.core - block) <= 1e-12 * frobenius_norm(stack)


def test_hosvd_batch_ranks_zero_and_full(rng):
    stack = rng.standard_normal((3, 25, 8, 20))
    full = hosvd_batch(stack)
    same = hosvd_batch(stack, (25, 8, 20))
    assert same.core.tobytes() == full.core.tobytes()
    none = hosvd_batch(stack, [0, 0, 0])
    assert none.core.shape == (3, 0, 0, 0)
    assert [u.shape for u in none.factors] == [(3, 25, 0), (3, 8, 0), (3, 20, 0)]
    assert not np.any(tucker_reconstruct_batch(none))


@pytest.mark.parametrize(
    "ranks",
    [(-1, 1, 1), (26, 1, 1), (1, 9, 1), (1, 1, 21), (1, 1), (1, 1, 1, 1), (1.0, 1, 1), 3, "abc"],
)
def test_hosvd_batch_rejects_bad_ranks(rng, ranks):
    with pytest.raises(UsageError):
        hosvd_batch(rng.standard_normal((2, 25, 8, 20)), ranks)
