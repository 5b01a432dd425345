"""Alternating-minimization reconstruction with weighted core shrinkage.

Each outer iteration (a) groups similar patches of the current estimate,
(b) denoises every group by soft-thresholding its HOSVD core with the
weights w = c / (|g| + EPS), g the group's shrunk core from the previous
iteration (its unshrunk core right after a rematch), (c) scatters the
denoised groups back, and (d) takes the exact image update in projection
form, f = z + Phi^T (2 tau I + Phi Phi^T)^{-1} (y - Phi z), z the groups'
average, with ``imaging.ridge_project``: detector pixels that no band
reaches carry no information and are ignored.

The loop is accelerated with FISTA momentum (Beck and Teboulle, 2009)
and the gradient restart of O'Donoghue and Candes (2015): steps (a) and
(b) read an extrapolated point x, not the last solution f of step (d).
``_momentum`` gives the next x from the new solution, the previous one
and the momentum scalar t, which starts at 1; x restarts at the new
solution with t = 1 whenever the last step went against the momentum.

Steps (b) and (c) run as one array pipeline over fixed-size chunks of
groups, on private kernels that the tests hold against the per-group
reference path below. The gather offsets are built once per call. Once
per rematch the members are checked, by ``patches.coverage_counts``, and
each chunk's band of the flat cube is planned, by
``patches._band_plan``: its smallest voxel index lo, and its members'
first voxels less lo. Each chunk then runs ``patches._voxel_indices`` of
those, a gather from lo on, ``_denoise`` (on ``tensors._hosvd``,
``_weights``, ``_shrink`` and ``tensors._mode_products_batch``) and one
``np.bincount`` into its band, and its one check is ``_denoise``'s, on
the stack's norm. A chunk gathers its indices and stack into a pair of
buffers that no running chunk holds, one chunk in size, made at most
once per thread and kept until the next rematch, and once the core is
in, the stack's memory takes the weights, the shrunk core and then the
rebuilt groups. So the arrays of a chunk's size are not allocated and
freed once per chunk, and the allocator has no heap top to trim and
fault back in at the next chunk. ``_denoise`` drops each other temporary
as soon as it is dead: the unshrunk core once it is shrunk. The chunks
of an iteration run on ``WORKERS`` threads, the calling thread among
them: NumPy's ``eigh`` and ``matmul`` release the GIL for hundreds of us
at a time, so on two CPUs the step alone ran 1.1-2.2x faster on two
threads than on one, a gain that GIL round trips bound: a chunk takes
the GIL back after each such call, and waits while the other thread
holds it. Each thread takes the next chunk in order as it comes free,
and the chunks' partial sums, each over the band of the flat cube
between its smallest and largest voxel index, are added in chunk order,
each as soon as all before it are in, so the output is bitwise the same
for any CPU count and timing. No thread outlives the call.

As in reweighted l1, a coefficient g of kept magnitude m survives the
shrink only if |g| (m + EPS) > c / (2 tau), m being |g| on a first visit
and 0 once g was shrunk to zero: |g| > 2750 at the defaults, beyond a
group's norm (about 190 for 25x31x45 in [0, 1]). No entry of core slice j
along a mode exceeds sigma_j, the mode's j-th singular value, which
``tensors._hosvd``'s eigensolve gives. So along each mode a visit computes
the core up to the last slice, over the chunk, where 2 (sigma + sqrt(n
eps) norm) could survive (n and norm the stack's size and norm: a factor
2 over the eigenvalues' error, and no division), and at least the kept
block (empty on a first visit). A cut core's slice is the full one's, and
each slice left out is zero after the full step's shrink: the output is
the full step's up to rounding. Blocks are often much smaller than the
full cores (README.md gives figures) and few of their entries are
nonzero, so a visit keeps only the block's shape and the flat positions
and magnitudes of its nonzero entries. The next visit gives every entry
a zero's weight, c / EPS, then the kept ones the weights of their
magnitudes; a rematch resets them, so its next visit is a first visit.

The reference path does the same work one group at a time:
``denoise_group`` on ``tensors.hosvd``, ``shrink_core`` and
``update_weights``, and ``cg_solve_image``, which also takes per-voxel
prior weights, for the image update. It stays public because the
benchmark traces it by name; the tests hold the chunk kernels against it.
"""
from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

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

# Tikhonov ridge of the first data step, taken from z = 0.
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

# Threads of the group step, the caller's included: the CPUs this process
# may run on. With one, none is started.
WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


@dataclass(frozen=True)
class SolverParams:
    """Tuning knobs; the defaults are the method's reference settings.

    Each field is stored as its check returns it: a Python float (tau, c) or int.
    """

    tau: float = 1.0
    c: float = 0.0055
    s: int = 5
    step: int = 4
    k: int = 45
    window: int = 20
    max_iter: int = 600
    rematch_every: int = 40

    def __post_init__(self):
        put = functools.partial(object.__setattr__, self)
        tau = check_positive("tau", self.tau)
        if not math.isfinite(2.0 * tau):  # the data step's rho
            raise UsageError(f"tau must be at most half the largest float, got {self.tau!r}")
        put("tau", tau)
        put("c", check_positive("c", self.c))
        for name, low in dict(s=1, k=1, window=0, max_iter=1, rematch_every=1).items():
            put(name, check_int(name, getattr(self, name), low))
        # With step <= s the anchors alone tile the plane, so every voxel is covered.
        put("step", check_int("step", self.step, 1, self.s))


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
    stacked: np.ndarray, kept: tuple | None, p: SolverParams, out: np.ndarray
) -> tuple[np.ndarray, tuple]:
    # The chunk step of reconstruct: denoise_group of every group of a
    # C-contiguous (g, s*s, L, k) stack. kept, only read, is the shape of the
    # live block of the chunk's last shrunk cores and the flat positions and
    # magnitudes of its nonzero entries (None on a first visit); the block of
    # the state returned ends, along each mode, at the last index nonzero in
    # some group, (g, 0, 0, 0) if none is. out, a C-contiguous array of the
    # stack's shape and possibly the stack itself, dead once the core is in,
    # takes the weights and so the shrunk core in its leading entries, then
    # the approximation; the unshrunk core is dropped once it is shrunk.
    norm = np.linalg.norm(stacked.ravel())
    if not math.isfinite(norm * norm):  # the stack's one check; else eigh reads inf
        raise DataError("tensor stack contains non-finite values or overflows its Gram matrices")
    widths = (0, 0, 0) if kept is None else kept[0][1:]
    err, t = math.sqrt(stacked.size * np.finfo(float).eps) * norm, p.c / (2.0 * p.tau)

    def block(lams):  # the module docstring's rule: s >= 2 sigma, m the kept magnitude
        s = [2.0 * (np.sqrt(lam.max(axis=0, initial=0.0)) + err) for lam in lams]
        m = s if kept is None else (0.0, 0.0, 0.0)
        return [max(r, np.count_nonzero(a * (b + EPS) > t)) for a, b, r in zip(s, m, widths)]

    core, factors = tensors._hosvd(stacked, block)
    w = out.ravel()[: core.size].reshape(core.shape)
    if kept is None:
        _weights(core, p.c, w)
    else:  # _weights of the kept block zero-padded to the core's
        shape, pos, vals = kept
        w.fill(p.c / EPS)
        w[tuple(slice(0, n) for n in shape)].flat[pos] = _weights(vals, p.c)
    g = _shrink(core, w, p.tau, out=w)
    del core
    nz = np.flatnonzero(g != 0)  # several times faster on bools than on floats
    at = np.unravel_index(nz, g.shape)
    shape = (len(g), *(int(a.max(initial=-1)) + 1 for a in at[1:]))
    state = shape, np.ravel_multi_index(at, shape), np.abs(g.ravel().take(nz))
    del nz, at  # before the rebuild: held through it, steady iterations fault pages
    # The rebuild's first product is the last read of g, so out can take it.
    return tensors._mode_products_batch(g, factors, out), state


def cg_solve_image(
    rhs: np.ndarray, counts: np.ndarray, sys: imaging.SystemModel, tau: float
) -> np.ndarray:
    """Solve (Phi^T Phi + 2 tau counts) f = rhs by conjugate gradient.

    ``reconstruct`` has unit counts and solves exactly with
    ``imaging.ridge_project``; this solver takes any positive per-voxel
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
    y = imaging._planes(y, sys)  # shapes, the pan against the mode, then values
    rows, cols = sys.mask.shape
    dims = (rows, cols, sys.bands)
    f = imaging.ridge_project(imaging.ridge_factor(sys, INIT_RIDGE), y, np.zeros(dims))
    data_step = imaging.ridge_factor(sys, 2.0 * p.tau)

    grid = patches.plan_grid(rows, cols, p.s, p.step)
    chunk = max(2, CHUNK_BYTES // (8 * p.s * p.s * sys.bands * p.k))
    parts = [slice(lo, lo + chunk) for lo in range(0, len(grid.rows) * len(grid.cols), chunk)]
    block = patches._block_offsets(p.s, dims)
    buffer_shape = (min(chunk, len(grid.rows) * len(grid.cols)), *block.shape, p.k)
    spare: list[tuple[np.ndarray, np.ndarray]] = []  # index and stack buffers of no running chunk

    def step(i: int) -> tuple[int, np.ndarray]:
        # Chunk i of the group step on the current x, band plan and kept
        # state, through the unchecked kernels: the members were checked by
        # coverage_counts, and _denoise scans the stack.
        chunk_origins, lo = origins[parts[i]], los[i]
        n = len(chunk_origins)
        try:
            idx_buf, stack_buf = spare.pop()
        except IndexError:  # all in use: at most one pair per thread is made
            idx_buf, stack_buf = np.empty(buffer_shape, dtype=np.intp), np.empty(buffer_shape)
        idx = patches._voxel_indices(chunk_origins, block, out=idx_buf[:n])  # voxels less lo
        # The indices are in range, so "clip" clips nothing; it takes out
        # as it is, where the default mode would fill a buffered copy.
        stack = np.take(x.ravel()[lo:], idx, out=stack_buf[:n], mode="clip")
        approx, kept[i] = _denoise(stack, kept[i], p, out=stack)
        band = np.bincount(idx.ravel(), weights=approx.ravel())
        spare.append((idx_buf, stack_buf))
        return lo, band

    def add(part: tuple[int, np.ndarray]) -> None:
        # A chunk's band of the flat cube into the iteration's total.
        lo, band = part
        total.reshape(-1)[lo : lo + band.size] += band

    plan = patches._match_plan(dims, grid, p.k, p.window)
    x, t = f, 1.0  # the point the group step reads, and the momentum scalar
    t0 = time.perf_counter()
    for it in range(1, p.max_iter + 1):
        if (it - 1) % p.rematch_every == 0:
            kept = [None] * len(parts)  # first visit: weights from the unshrunk cores
            spare.clear()  # no chunk buffers held while matching
            members = patches._match(x, plan)
            counts = patches.coverage_counts(members, p.s, (rows, cols))
            origins, los = patches._band_plan(members, dims, parts)
        total = np.zeros(dims)
        with _one_blas_thread():
            _in_order(len(parts), step, add)
        f_new = imaging.ridge_project(data_step, y, total / counts)
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


def _in_order(n: int, work: Callable[[int], Any], add: Callable[[Any], object]) -> None:
    """Hand ``work(0)``, ..., ``work(n - 1)`` to ``add`` in that order.

    The pool of ``reconstruct``'s group step, whose ``add`` adds each
    chunk's band into the iteration's cube.
    ``min(WORKERS, n) - 1`` threads and the calling thread each take the
    next index as they come free; where a thread cannot be started, those
    started do its share. A result is handed over as soon as all before
    it are, one ``add`` at a time, so what ``add`` builds is bitwise the
    same for any worker count and timing. No thread runs more than two
    indexes per thread ahead of the last one handed over, which bounds the
    results held while one is late. If ``work`` or ``add`` raises, no
    further index is handed out, every thread ends before this returns,
    and the error of the lowest failing index is raised.
    """
    workers = min(WORKERS, n)
    window = 2 * workers
    threads: list[threading.Thread] = []
    cond = threading.Condition()
    taken = added = 0
    done: dict[int, Any] = {}
    errors: dict[int, BaseException] = {}

    def run() -> None:
        nonlocal taken, added
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
                with cond:
                    done[i] = part
                    i = added
                    while i in done:
                        add(done.pop(i))
                        i = added = i + 1
                    cond.notify_all()
            except BaseException as e:  # work(i) failed, or add of result i did
                with cond:
                    errors[i] = e
                    cond.notify_all()
                return

    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=run)
            with contextlib.suppress(RuntimeError):  # "can't start new thread": left out
                thread.start()
                threads.append(thread)
        run()
    finally:
        with cond:
            taken = n
            cond.notify_all()
        for t in threads:
            t.join()
    if errors:
        raise errors[min(errors)]


@functools.cache
def _openblas():
    # The (get, set) thread-count functions of the loaded OpenBLAS, found by
    # the path, a map line's sixth field, of a mapped file not since deleted;
    # None without one, or without the symbols (another BLAS).
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = [line.rstrip("\n").split(maxsplit=5)[-1] for line in maps]
    except OSError:
        return None
    libs = {p for p in paths if "openblas" in p.lower() and not p.endswith(" (deleted)")}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get, put = (getattr(handle, name.format(op), None) for op in ("get", "set"))
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                return get, put
    return None


_blas_lock = threading.Lock()
_blas_users, _blas_saved = 0, 1  # pools running, and the count the first one found


@contextlib.contextmanager
def _one_blas_thread():
    # Hold the loaded OpenBLAS at one thread while the group step's pool
    # runs: its threads already share the CPUs, and BLAS threads of their
    # own on small products only contend with them. The setter is
    # process-wide, so the first pool to start reads the caller's count and
    # the last one to end restores it, also when a pool raises.
    global _blas_users, _blas_saved
    blas = _openblas()
    with _blas_lock:
        if blas and not _blas_users:
            _blas_saved = blas[0]()
            blas[1](1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if blas and not _blas_users:
                blas[1](_blas_saved)


def _data_fit(y: imaging.Measurement, f: np.ndarray, sys: imaging.SystemModel) -> float:
    sim = imaging.forward(f, sys)
    fit2 = float(np.sum((sim.cassi - y.cassi) ** 2))
    if sim.pan is not None:
        fit2 += float(np.sum((sim.pan - y.pan) ** 2))
    return float(np.sqrt(fit2))
