"""One benchmark job in a fresh process, as a user's run would start.

    python3 perfbench/job.py --root . --workload desk_cassi --seed 42 \
        --inputs DIR --out result.json [--spans spans.jsonl --run-id ID]

Imports hsrecon from ``ROOT/src``, runs the workload once on the inputs
that ``run.py`` wrote to DIR, checks the output, and writes timings,
quality, the output hash and the environment to ``--out``. With
``--spans`` every public function of the traced layers records spans,
and the per-layer numbers are added to the result.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked from the loaded library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def _run_library(w, seed: int, inputs: Path, phases: dict) -> tuple:
    import numpy as np
    from hsrecon import imaging, metrics, solver

    t = time.perf_counter()
    truth = np.load(inputs / "truth.npy")
    mask = np.load(inputs / f"mask-{seed}.npy")
    phases["read"] = time.perf_counter() - t

    t = time.perf_counter()
    sysm = imaging.SystemModel.default(mask, truth.shape[2], mode=w.mode)
    params = solver.SolverParams(max_iter=w.iters, **w.params)
    phases["system"] = time.perf_counter() - t

    t = time.perf_counter()
    y = imaging.forward(truth, sysm)
    phases["simulate"] = time.perf_counter() - t

    stamps: list[float] = []
    t = time.perf_counter()
    rec = solver.reconstruct(y, sysm, params, progress=lambda it, res, sec: stamps.append(sec))
    phases["reconstruct"] = time.perf_counter() - t

    t = time.perf_counter()
    quality = {"psnr_db": metrics.psnr(truth, rec), "ssim": metrics.ssim(truth, rec)}
    phases["evaluate"] = time.perf_counter() - t
    return rec, rec.tobytes(), stamps, quality


def _run_cli(w, seed: int, inputs: Path, phases: dict) -> tuple:
    from hsrecon.cli import cli

    from scenes import read_hsc1

    files = {k: str(inputs / v) for k, v in dict(
        truth="truth.hsc", meas="meas.hsp", mask="mask.hsp", recon="recon.hsc",
        log="progress.csv", report="report.csv", view="view.ppm").items()}
    rows, cols, bands = w.shape
    commands = {
        "simulate": ["simulate", "--cube", files["truth"], "--mode", w.mode,
                     "--seed", str(seed), "--p", "0.5",
                     "--out-meas", files["meas"], "--out-mask", files["mask"]],
        "reconstruct": ["reconstruct", "--meas", files["meas"], "--mask", files["mask"],
                        "--dims", f"{rows},{cols},{bands}", "--out", files["recon"],
                        "--iters", str(w.iters), "--log", files["log"]],
        "evaluate": ["evaluate", "--ref", files["truth"], "--est", files["recon"],
                     "--out", files["report"]],
        "preview": ["preview", "--cube", files["recon"], "--out", files["view"]],
    }
    for name, argv in commands.items():
        t = time.perf_counter()
        code = cli(argv)
        phases[name] = time.perf_counter() - t
        if code != 0:
            raise RuntimeError(f"hsrecon {name} exited {code}")
    with open(files["log"]) as fh:
        stamps = [float(row["seconds"]) for row in csv.DictReader(fh)]
    with open(files["report"]) as fh:
        row = next(csv.DictReader(fh))
    quality = {"psnr_db": float(row["psnr_db"]), "ssim": float(row["ssim"])}
    rec = read_hsc1(Path(files["recon"]))
    output = Path(files["recon"]).read_bytes() + Path(files["view"]).read_bytes()
    return rec, output, stamps, quality


def check(w, rec, stamps, quality) -> list[str]:
    """Reasons the job's output is wrong; empty when it passes."""
    import numpy as np

    problems = []
    if rec.shape != tuple(w.shape):
        problems.append(f"shape {rec.shape} != {tuple(w.shape)}")
    elif not np.all(np.isfinite(rec)):
        problems.append("non-finite values")
    elif rec.min() < 0.0 or rec.max() > 1.0:
        problems.append(f"values outside [0, 1]: [{rec.min()}, {rec.max()}]")
    if len(stamps) != w.iters:
        problems.append(f"{len(stamps)} progress records for {w.iters} iterations")
    if not quality["psnr_db"] >= w.psnr_floor_db:
        problems.append(f"PSNR {quality['psnr_db']:.3f} dB < floor {w.psnr_floor_db}")
    if not quality["ssim"] >= w.ssim_floor:
        problems.append(f"SSIM {quality['ssim']:.4f} < floor {w.ssim_floor}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="the job's mask seed")
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--run-id", default="untraced")
    args = ap.parse_args(argv)

    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    phases: dict[str, float] = {}

    t = time.perf_counter()
    import hsrecon

    if w.kind == "cli":
        import hsrecon.cli  # noqa: F401
    phases["import"] = time.perf_counter() - t
    if not Path(hsrecon.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"hsrecon imported from {hsrecon.__file__}, not {src}")

    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer(args.run_id)
        spans.instrument(tracer)

    inputs = Path(args.inputs)
    if w.kind == "cli":
        rec, output, stamps, quality = _run_cli(w, args.seed, inputs, phases)
    else:
        rec, output, stamps, quality = _run_library(w, args.seed, inputs, phases)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    recon_s = phases["reconstruct"]
    loop_s = stamps[-1] if stamps else 0.0
    iter_ms = [1000.0 * (b - a) for a, b in zip([0.0] + stamps[:-1], stamps)]
    result = {
        "workload": w.name,
        "seed": args.seed,
        "run_id": args.run_id,
        "phases": phases,
        "recon_s": recon_s,
        "setup_s": phases["import"] + phases.get("read", 0.0) + phases.get("system", 0.0)
        + (recon_s - loop_s),
        "total_s": sum(phases.values()),
        "iter_ms": iter_ms,
        "peak_rss_mb": rss_mb,
        **quality,
        "hash": hashlib.sha256(output).hexdigest(),
        "problems": check(w, rec, stamps, quality),
        "env": environment(),
    }
    if tracer is not None:
        result["layers"] = spans.summarize(tracer)
        tracer.write(args.spans)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
