"""Workload parameters of the hsrecon benchmark.

Metric names, units and bounds live only in ``BENCHMARK.json``, which
``run.py`` reads; the workloads' reasons are in README.md.
"""
from __future__ import annotations

from dataclasses import dataclass, field

# Every workload reconstructs the acceptance scene family member 42; the
# workload seed draws the coded aperture (mask). See README.md for why the
# scene does not follow the seed.
SCENE_SEED = 42
TUCKER_RANKS = (6, 6, 3)
MASK_P = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "library": solver.reconstruct in-process; "cli": hsrecon.cli.cli chain
    shape: tuple[int, int, int]
    mode: str  # "cassi" or "dcchi"
    params: dict = field(default_factory=dict)  # SolverParams overrides (library)
    iters: int = 20  # outer iterations per job
    # Untraced jobs in a run of BENCHMARK.json's run_seconds. The count is
    # fixed, not fitted to the machine's speed, so every run pools the same
    # number of iterations and iter_ms_tail is always the same percentile.
    jobs: int = 2
    # Output check: about 1 dB and 0.02-0.06 SSIM below the lowest value seen
    # over 15+ mask seeds, so only a broken reconstruction fails it.
    psnr_floor_db: float = 0.0
    ssim_floor: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_cassi",
            kind="library",
            shape=(64, 64, 8),
            mode="cassi",
            params=dict(s=5, step=4, k=20, window=10, rematch_every=40),
            iters=18,
            jobs=4,
            psnr_floor_db=18.3,
            ssim_floor=0.32,
        ),
        Workload(
            name="rematch_dcchi",
            kind="library",
            shape=(64, 64, 8),
            mode="dcchi",
            params=dict(s=5, step=4, k=45, window=20, rematch_every=1, tau=0.1),
            iters=14,
            jobs=2,
            psnr_floor_db=27.6,
            ssim_floor=0.86,
        ),
        Workload(
            name="cli_31band",
            kind="cli",
            shape=(32, 32, 31),
            mode="cassi",
            iters=28,
            jobs=2,
            psnr_floor_db=17.6,
            ssim_floor=0.18,
        ),
    )
}
