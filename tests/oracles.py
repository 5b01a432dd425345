"""Dense oracles that the tests hold the library's solvers against."""
import numpy as np

from hsrecon import imaging


def dense_solve(sys: imaging.SystemModel, diag, b: np.ndarray) -> np.ndarray:
    """The solution f of (Phi^T Phi + diag) f = b, by ``np.linalg.solve``.

    Phi^T Phi is built as a dense matrix one column at a time, the normal
    operator of ``sys`` applied to each unit cube. ``diag`` is a scalar or
    a cube of per-voxel weights.
    """
    shape = (*sys.mask.shape, sys.bands)
    n = int(np.prod(shape))
    eye = np.eye(n)
    cols = [imaging.apply_normal_operator(eye[i].reshape(shape), sys).ravel() for i in range(n)]
    dense = np.stack(cols, axis=1) + np.diag(np.broadcast_to(diag, shape).ravel())
    return np.linalg.solve(dense, np.ravel(b)).reshape(shape)
