"""Alternating-minimization reconstruction with weighted core shrinkage.

Each outer iteration (a) groups similar patches of the current estimate,
(b) denoises every group by soft-thresholding its HOSVD core with the
weights w = c / (|g| + EPS), g the group's shrunk core from the previous
iteration (its unshrunk core right after a rematch), (c) scatters the
denoised groups back, and (d) solves the coupled least-squares image
update exactly, with the factorization ``imaging.ridge_factor`` builds
once per reconstruction.

The loop is accelerated with FISTA momentum (Beck and Teboulle, 2009)
and the gradient restart of O'Donoghue and Candes (2015): steps (a) and
(b) read an extrapolated point x, not the last solution f of step (d).
``_momentum`` gives the next x from the new solution, the previous one
and the momentum scalar t, which starts at 1; x restarts at the new
solution with t = 1 whenever the last step went against the momentum.

Step (a) matches every anchor at once with ``patches.match_groups``.
Steps (b) and (c) run as one array pipeline over fixed-size chunks of
groups, on private kernels that the tests hold against the per-group
reference path below. The members are checked once per rematch, by
``patches.coverage_counts``, and the gather offsets are built once per
call; each chunk then runs ``patches._voxel_indices``, ``_denoise`` (on
``tensors._hosvd``, ``_weights``, ``_shrink`` and
``tensors._mode_products_batch``) and ``patches._scatter``, and its one
check is ``_denoise``'s finite scan of the stack. A chunk gathers its indices
and stack into a pair of buffers that no running chunk holds, one chunk
in size, made at most once per thread and kept until the next rematch,
and once the core is in, the stack's memory takes the weights, the
shrunk core and then the rebuilt groups. So the arrays of a chunk's size
are not allocated and freed once per chunk, and the allocator has no heap
top to trim and fault back in at the next chunk. ``_denoise`` drops each
other temporary as soon as it is dead: the unshrunk core once it is
shrunk. The chunks of an iteration run on ``WORKERS`` threads, the
calling thread among them (NumPy's ``eigh`` and ``matmul``
release the GIL). Each thread takes the next chunk in order as it comes
free, and the partial cubes are added in chunk order, each as soon as all
before it are in, so the output is bitwise the same for any CPU count and
timing.

As in reweighted l1, a coefficient shrunk to zero weighs c / EPS at the
next visit, a threshold of c / (2 tau EPS): 2750 at the defaults. No core
entry exceeds its group's Frobenius norm (about 190 for a 25x31x45 group
in [0, 1]), so it stays zero until the next rematch. A revisit passes
the shape of the live block of the chunk's shrunk cores (``_live_box``)
to ``tensors._hosvd`` as ``ranks``: the eigensolves are unchanged, while the
core product, weights, shrink and Tucker reconstruction run on the block
alone. The guard, c / (2 tau EPS) > 2 * the chunk's norm, leaves a margin
for rounding; a chunk that fails it zero-pads the block and shrinks the
full cores. Either way the output is the full step's up to rounding.
After a first visit the block can be most of the full cores, after a
later one much less (README.md gives figures), and few of its entries are
nonzero, so every visit stores for its chunk only the block's shape and
the flat positions and values of its nonzero entries, and the next visit
rebuilds the dense block from them: the same bits. A rematch resets that
kept state before it matches, so its next visit is a first visit.

The reference path does the same work one group at a time:
``denoise_group`` on ``tensors.hosvd``, ``shrink_core`` and
``update_weights``, and ``cg_solve_image``, which also takes per-voxel
prior weights, for the image update. It stays public because the
benchmark traces it by name; the tests hold the chunk kernels against it.
"""
from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import imaging, patches, tensors
from .errors import DataError, DimensionError, UsageError, check_array, check_int, check_positive
from .tensors import TuckerFactors, hosvd, tucker_reconstruct

__all__ = [
    "SolverParams",
    "shrink_core",
    "update_weights",
    "denoise_group",
    "cg_solve_image",
    "reconstruct",
]

# Tikhonov regularizer for the initial backprojection solve.
INIT_RIDGE = 1e-3

# Keeps the weights w = c / (|g| + EPS) of zero coefficients finite.
EPS = 1e-6

# Gathered float64 bytes per chunk of the batched group step, but never
# fewer than two groups: where one group is over half of it, as at 31 bands
# and k = 45 (25 x 31 x 45, 272 KiB), a chunk's fixed cost (Python calls,
# the GIL handed between the pool's threads) then serves twice the
# arithmetic. Bigger chunks raise peak memory, most of all with several
# threads: each thread's allocator keeps its own chunk temporaries. At 31
# bands three and four groups ran no faster than two and took 2 and 4 MiB
# more peak memory.
CHUNK_BYTES = 384 << 10

# Threads of the group step, the calling thread included: the CPUs this
# process may run on. With one, no thread is started.
WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


@dataclass(frozen=True)
class SolverParams:
    """Tuning knobs; the defaults are the method's reference settings."""

    tau: float = 1.0
    c: float = 0.0055
    s: int = 5
    step: int = 4
    k: int = 45
    window: int = 20
    max_iter: int = 600
    rematch_every: int = 40

    def __post_init__(self):
        if not math.isfinite(2.0 * check_positive("tau", self.tau)):  # the data step's rho
            raise UsageError(f"tau must be at most half the largest float, got {self.tau!r}")
        check_positive("c", self.c)
        for name, low in dict(s=1, k=1, window=0, max_iter=1, rematch_every=1).items():
            check_int(name, getattr(self, name), low)
        # With step <= s the anchors alone tile the plane, so every voxel is covered.
        check_int("step", self.step, 1, self.s)


def shrink_core(g_hat: np.ndarray, w: np.ndarray, tau: float) -> np.ndarray:
    """Sign-preserving soft threshold: sign(g) * max(|g| - w/(2 tau), 0)."""
    tau = check_positive("tau", tau)
    g_hat = check_array("core", g_hat, None, finite=False)
    w = check_array("weights", w, None, finite=False)
    if w.shape != g_hat.shape:
        raise DimensionError(f"weights shape {w.shape} != core shape {g_hat.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf gives NaN
        # A new array, not a ufunc's own output: that is a scalar for 0-d input.
        return _shrink(g_hat, w, tau, np.empty(w.shape))


def _shrink(g_hat: np.ndarray, w: np.ndarray, tau: float, out: np.ndarray) -> np.ndarray:
    # shrink_core of checked arguments, into ``out``, which may be ``w``.
    t = np.divide(w, 2.0 * tau, out=out)
    np.subtract(np.abs(g_hat), t, out=t)
    np.maximum(t, 0.0, out=t)
    return np.copysign(t, g_hat, out=t)


def update_weights(g: np.ndarray, c: float) -> np.ndarray:
    """Inverse-magnitude weights: w = c / (|g| + EPS)."""
    c = check_positive("c", c)
    return _weights(check_array("core", g, None, finite=False), c)


def _weights(g: np.ndarray, c: float, out: np.ndarray | None = None) -> np.ndarray:
    # update_weights of checked arguments, into out if given.
    w = np.abs(g, out=np.empty(g.shape) if out is None else out)  # an array also for 0-d g
    w += EPS
    return np.divide(c, w, out=w)


def denoise_group(
    stacked: np.ndarray, core_mag: np.ndarray | None, p: SolverParams
) -> tuple[np.ndarray, np.ndarray]:
    """Shrink one group's HOSVD core and reconstruct the approximation.

    The weights come from ``core_mag``, the shrunk-core magnitudes of the
    group's previous visit, or from the unshrunk core on a first visit
    (``core_mag`` None). Returns the approximation and the new magnitudes.
    """
    tf = hosvd(stacked)
    w = update_weights(tf.core if core_mag is None else core_mag, p.c)
    g = shrink_core(tf.core, w, p.tau)
    return tucker_reconstruct(TuckerFactors(core=g, factors=tf.factors)), np.abs(g)


def _denoise(
    stacked: np.ndarray, core_mag: np.ndarray | None, p: SolverParams, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # The chunk step of reconstruct: denoise_group of every group of a
    # C-contiguous (g, s*s, L, k) stack. core_mag is the live block of the
    # chunk's last shrunk cores (None on a first visit) and is only read; the
    # magnitudes returned are the new live block: along each mode, up to the
    # last index that is nonzero in some group, (g, 0, 0, 0) if none is. The
    # stack's one check is a finite scan. out is a C-contiguous array of the
    # stack's shape that may be overwritten, the stack itself among them, as
    # it is dead once the core is in: the weights and so the shrunk core go
    # into its leading entries, and then the approximation into all of it.
    # The stack is the caller's buffer, so nothing here frees it; the
    # unshrunk core is dropped once it is shrunk.
    norm = np.linalg.norm(stacked.ravel())  # not finite if an entry is not, or on overflow
    if not math.isfinite(norm) and not np.isfinite(stacked).all():
        raise DataError("tensor stack contains non-finite values")
    ranks = None
    if core_mag is not None and p.c / (2.0 * p.tau * EPS) > 2.0 * norm:
        ranks = core_mag.shape[1:]
    core, factors = tensors._hosvd(stacked, ranks)
    mag = core if core_mag is None else core_mag
    if mag.shape != core.shape:  # the guard failed: zero-pad the block
        mag = np.zeros(core.shape)
        mag[tuple(slice(0, n) for n in core_mag.shape)] = core_mag
    w = _weights(mag, p.c, out.ravel()[: core.size].reshape(core.shape))
    g = _shrink(core, w, p.tau, out=w)
    del core, mag
    live = np.abs(g[_live_box(g)])
    # The rebuild's first product is the last read of g, so out can take it.
    return tensors._mode_products_batch(g, factors, out), live


def _live_box(g: np.ndarray) -> tuple[slice, ...]:
    # Index of the leading block of a (g, r1, r2, r3) stack that holds
    # every nonzero entry.
    live = (g != 0).any(axis=0)
    box = [slice(None)]
    for axis in range(3):
        hit = np.flatnonzero(live.any(axis=tuple(a for a in range(3) if a != axis)))
        box.append(slice(0, hit[-1] + 1 if hit.size else 0))
    return tuple(box)


def cg_solve_image(
    rhs: np.ndarray, counts: np.ndarray, sys: imaging.SystemModel, tau: float
) -> np.ndarray:
    """Solve (Phi^T Phi + 2 tau counts) f = rhs by conjugate gradient.

    ``reconstruct`` has unit counts and solves exactly with
    ``imaging.ridge_solve``; this solver takes any positive per-voxel
    weights and is the reference the exact one is tested against. It stops
    once the residual norm is at most 1e-14 times that of ``rhs``, or after
    ``rhs.size`` steps, where CG ends in exact arithmetic.
    """
    tau = check_positive("tau", tau)
    rhs, counts = check_array("right-hand side", rhs, 3), check_array("counts", counts, None)
    if counts.shape != rhs.shape:
        raise DimensionError(f"counts shape {counts.shape} != right-hand side {rhs.shape}")

    def apply(x: np.ndarray) -> np.ndarray:
        return imaging.apply_normal_operator(x, sys) + (2.0 * tau) * counts * x

    x = np.zeros_like(rhs)
    r = rhs.copy()
    d = r.copy()
    rs = float(np.vdot(r, r))
    stop = 1e-14 * np.linalg.norm(rhs.ravel())
    for _ in range(rhs.size):
        if math.sqrt(rs) <= stop:  # at once for a zero rhs
            break
        ad = apply(d)
        alpha = rs / float(np.vdot(d, ad))
        x += alpha * d
        r -= alpha * ad
        rs_new = float(np.vdot(r, r))
        d = r + (rs_new / rs) * d
        rs = rs_new
    return x


def reconstruct(
    y: imaging.Measurement,
    sys: imaging.SystemModel,
    p: SolverParams,
    progress: Callable[[int, float, float], None] | None = None,
) -> np.ndarray:
    """Full alternating-minimization reconstruction from a measurement.

    Matching and the group step read the point x; the data step gives the
    solution f_new. Then, with f_prev the solution before it and t the
    momentum scalar (1 at the start, and x = f before the first step):
    if <x - f_new, f_new - f_prev> > 0 the step went against the momentum,
    and the loop restarts with x = f_new and t = 1; otherwise
    t' = (1 + sqrt(1 + 4 t^2)) / 2, x = f_new + ((t - 1) / t') (f_new -
    f_prev) and t = t'. The rule has no parameter and needs no residual,
    so the loop has no option: the plain loop it replaced read a lower
    PSNR at every benchmark workload's iteration count.

    ``progress`` receives (iteration, data-fit residual of f_new, elapsed
    seconds) once per outer iteration. The returned cube is the last f_new
    clamped to [0, 1].

    The denoised groups enter the image update as their per-voxel average
    (aggregate sum divided by coverage counts) under a unit prior weight.
    Weighting the prior by the raw coverage counts instead makes the
    data term negligible per iteration and stalls convergence at desk
    scale, so the averaged form is used.
    """
    backproj = imaging.adjoint(y, sys)  # checks the planes' shapes, and the pan against the mode
    # The values are checked here, so that a NaN or an infinity is named by its plane.
    pan = None if y.pan is None else check_array("pan plane", y.pan, None)
    y = imaging.Measurement(check_array("measurement", y.cassi, None), pan)
    rows, cols = sys.mask.shape
    dims = (rows, cols, sys.bands)
    f = imaging.ridge_solve(imaging.ridge_factor(sys, INIT_RIDGE), backproj)
    data_step = imaging.ridge_factor(sys, 2.0 * p.tau)

    grid = patches.plan_grid(rows, cols, p.s, p.step)
    chunk = max(2, CHUNK_BYTES // (8 * p.s * p.s * sys.bands * p.k))
    parts = [slice(lo, lo + chunk) for lo in range(0, len(grid.rows) * len(grid.cols), chunk)]
    block = patches._block_offsets(p.s, dims)
    buffer_shape = (min(chunk, len(grid.rows) * len(grid.cols)), *block.shape, p.k)
    spare: list[tuple[np.ndarray, np.ndarray]] = []  # index and stack buffers of no running chunk

    def step(i: int) -> np.ndarray:
        # Chunk i of the group step on the current x, members and kept state,
        # through the unchecked kernels: the members were checked by
        # coverage_counts, and _denoise scans the stack.
        chunk_members = members[parts[i]]
        n = len(chunk_members)
        try:
            idx_buf, stack_buf = spare.pop()
        except IndexError:  # all in use: at most one pair per thread is made
            idx_buf, stack_buf = np.empty(buffer_shape, dtype=np.intp), np.empty(buffer_shape)
        idx = patches._voxel_indices(chunk_members, block, dims, out=idx_buf[:n])
        # The indices are in range, so "clip" clips nothing; it takes out
        # as it is, where the default mode would fill a buffered copy.
        stack = np.take(x.ravel(), idx, out=stack_buf[:n], mode="clip")
        mag = None
        if mags[i] is not None:
            shape, pos, vals = mags[i]
            mag = np.zeros(shape)
            mag.put(pos, vals)
        approx, mag = _denoise(stack, mag, p, out=stack)
        pos = np.flatnonzero(mag != 0)  # several times faster on bools than on floats
        mags[i] = mag.shape, pos, mag.take(pos)
        part = patches._scatter(approx, idx, dims)
        spare.append((idx_buf, stack_buf))
        return part

    x, t = f, 1.0  # the point the group step reads, and the momentum scalar
    t0 = time.perf_counter()
    for it in range(1, p.max_iter + 1):
        if (it - 1) % p.rematch_every == 0:
            mags = [None] * len(parts)  # first visit: weights from the unshrunk cores
            spare.clear()  # no chunk buffers held while matching
            members = patches.match_groups(x, grid, p.k, p.window)
            counts = patches.coverage_counts(members, p.s, (rows, cols))
        total = _ordered_sum(len(parts), step, np.zeros(dims))
        rhs = backproj + (2.0 * p.tau) * (total / counts)
        f_new = imaging.ridge_solve(data_step, rhs)
        x, t = _momentum(x, f_new, f, t)
        f = f_new
        if progress is not None:
            fit = _data_fit(y, f, sys)
            progress(it, fit, time.perf_counter() - t0)
    return np.clip(f, 0.0, 1.0)


def _momentum(
    x: np.ndarray, f_new: np.ndarray, f_prev: np.ndarray, t: float
) -> tuple[np.ndarray, float]:
    """The next point x and momentum scalar t, by the rule of :func:`reconstruct`.

    The inner product is NumPy's pairwise sum, not a BLAS dot, so its bits
    do not depend on a thread count.
    """
    step = f_new - f_prev
    if np.sum((x - f_new) * step) > 0.0:
        return f_new, 1.0
    t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
    return f_new + ((t - 1.0) / t_next) * step, t_next


def _ordered_sum(n: int, work: Callable[[int], np.ndarray], total: np.ndarray) -> np.ndarray:
    """Add ``work(0)``, ..., ``work(n - 1)`` to ``total`` in that order.

    ``min(WORKERS, n) - 1`` threads and the calling thread each take the
    next index as they come free. A result is added as soon as all before
    it are, so ``total`` is bitwise the same for any worker count and
    timing. No thread runs more than two indexes per thread ahead of the
    last one added, which bounds the results held while one is late. If
    ``work`` raises, or its result cannot be added to ``total``, no further
    index is handed out, every thread ends, and the error of the lowest
    failing index is raised.
    """
    workers = min(WORKERS, n)
    window = 2 * workers
    threads: list[threading.Thread] = []
    cond = threading.Condition()
    taken = added = 0
    done: dict[int, np.ndarray] = {}
    errors: dict[int, BaseException] = {}

    def run() -> None:
        nonlocal taken, added, total
        while True:
            with cond:
                while taken - added >= window and taken < n and not errors:
                    cond.wait()
                i = taken
                if i >= n or errors:
                    return
                taken += 1
            try:
                part = work(i)
            except BaseException as e:
                with cond:
                    errors[i] = e
                    cond.notify_all()
                return
            with cond:
                done[i] = part
                try:
                    while added in done:
                        total += done.pop(added)
                        added += 1
                except BaseException as e:  # a result that does not fit total
                    errors[added] = e
                    return
                finally:
                    cond.notify_all()

    try:
        for _ in range(workers - 1):
            threads.append(threading.Thread(target=run))
            threads[-1].start()
        run()
    finally:
        with cond:
            taken = n
            cond.notify_all()
        for t in threads:
            t.join()
    if errors:
        raise errors[min(errors)]
    return total


def _data_fit(y: imaging.Measurement, f: np.ndarray, sys: imaging.SystemModel) -> float:
    sim = imaging.forward(f, sys)
    fit2 = float(np.sum((sim.cassi - y.cassi) ** 2))
    if sim.pan is not None:
        fit2 += float(np.sum((sim.pan - y.pan) ** 2))
    return float(np.sqrt(fit2))
