"""Command-line surface: simulate, reconstruct, evaluate, preview, diag."""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import color, fileio, imaging, metrics, patches, solver, tensors
from .errors import HsreconError, UsageError


def _parse_ints(text: str, name: str, form: str) -> tuple[int, ...]:
    """The comma-separated ints of option ``name``, as many as ``form`` has."""
    parts = text.split(",")
    if len(parts) != form.count(",") + 1:
        raise UsageError(f"{name} must be {form}, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(f"{name} must be integers, got {text!r}") from None


def _cmd_simulate(args) -> int:
    if (args.mode == imaging.DCCHI) != (args.out_pan is not None):
        raise UsageError("--out-pan is required in dcchi mode and not allowed in cassi mode")
    if not 0.0 <= args.noise_sigma < np.inf:
        raise UsageError(f"--noise-sigma must be finite and >= 0, got {args.noise_sigma}")
    cube = fileio.read_cube(args.cube)
    rows, cols, bands = cube.shape
    mask = imaging.generate_mask(rows, cols, args.p, args.seed)
    sysmod = imaging.SystemModel(mask, bands, args.mode)
    meas = imaging.forward(cube, sysmod)
    cassi, pan = meas.cassi, meas.pan
    if args.noise_sigma > 0.0:
        rng = np.random.default_rng(args.seed + 1)
        cassi = cassi + args.noise_sigma * rng.standard_normal(cassi.shape)
        if pan is not None:
            pan = pan + args.noise_sigma * rng.standard_normal(pan.shape)
    fileio.write_plane(cassi, args.out_meas)
    fileio.write_plane(mask, args.out_mask)
    if args.mode == imaging.DCCHI:
        fileio.write_plane(pan, args.out_pan)
    return 0


def _cmd_reconstruct(args) -> int:
    dims = _parse_ints(args.dims, "dims", "I,J,L")
    if min(dims) < 1:
        raise UsageError(f"dims must be positive, got {args.dims!r}")
    names = [f.name for f in fields(solver.SolverParams)]
    params = solver.SolverParams(**{name: getattr(args, name) for name in names})
    mask = fileio.read_plane(args.mask)  # SystemModel checks that it is 0/1
    if dims[:2] != mask.shape:
        rows, cols = mask.shape
        raise UsageError(f"--dims {dims[0]}x{dims[1]} does not match the {rows}x{cols} mask")
    cassi = fileio.read_plane(args.meas)
    pan = fileio.read_plane(args.pan) if args.pan else None
    mode = imaging.DCCHI if pan is not None else imaging.CASSI
    sysmod = imaging.SystemModel(mask, dims[2], mode)
    y = imaging.Measurement(cassi=cassi, pan=pan)
    log = None

    def progress(it: int, residual: float, seconds: float) -> None:
        nonlocal log
        if log is None:  # created with its first row: a run that fails its checks leaves none
            log = open(args.log, "w", buffering=1)  # flushed per row
            log.write("iter,residual,seconds\n")
        log.write(f"{it},{residual:.10e},{seconds:.3f}\n")

    try:  # no log, no progress callback, no per-iteration residual
        recon = solver.reconstruct(y, sysmod, params, progress=progress if args.log else None)
    finally:
        if log is not None:
            log.close()
    fileio.write_cube(recon, args.out)
    return 0


def _cmd_evaluate(args) -> int:
    ref = fileio.read_cube(args.ref)
    est = fileio.read_cube(args.est)
    r = metrics.evaluate(ref, est)
    band_cols = ",".join(f"band{i}_psnr_db" for i in range(len(r.band_psnr)))
    band_vals = ",".join(f"{v:.6f}" for v in r.band_psnr)
    text = (
        f"psnr_db,ssim,ergas,rmse,{band_cols}\n"
        f"{r.psnr:.6f},{r.ssim:.6f},{r.ergas:.6f},{r.rmse:.8f},{band_vals}\n"
    )
    fileio.write_atomic(args.out, text.encode())
    print(
        f"PSNR  {r.psnr:8.3f} dB\nSSIM  {r.ssim:8.5f}\n"
        f"ERGAS {r.ergas:8.4f}\nRMSE  {r.rmse:10.6f}"
    )
    return 0


def _cmd_preview(args) -> int:
    if not np.all(np.isfinite([args.wl_start, args.wl_step])):
        raise UsageError(
            f"wavelengths must be finite, got --wl-start {args.wl_start} --wl-step {args.wl_step}"
        )
    cube = fileio.read_cube(args.cube)
    wavelengths = args.wl_start + args.wl_step * np.arange(cube.shape[2])
    image = color.rgb_preview(cube, wavelengths)
    color.write_ppm(image, args.out)
    return 0


def _cmd_spectrum_diag(args) -> int:
    row, col = _parse_ints(args.anchor, "anchor", "row,col")
    cube = fileio.read_cube(args.cube)
    members = patches.match_blocks(cube, (row, col), args.s, args.k, args.window)
    stacked = patches.build_group(cube, members, args.s)
    mags = np.sort(np.abs(tensors.hosvd(stacked).core).ravel())[::-1]
    lines = ["rank,magnitude"]
    lines += [f"{i},{m:.10e}" for i, m in enumerate(mags)]
    fileio.write_atomic(args.out, ("\n".join(lines) + "\n").encode())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsrecon",
        description="Snapshot hyperspectral imaging: simulate, reconstruct, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = solver.SolverParams()

    p = sub.add_parser("simulate", help="simulate a snapshot measurement")
    p.add_argument("--cube", required=True)
    p.add_argument("--mode", choices=[imaging.CASSI, imaging.DCCHI], default=imaging.CASSI)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--out-meas", required=True)
    p.add_argument("--out-pan")
    p.add_argument("--out-mask", required=True)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="reconstruct a cube from a measurement")
    p.add_argument("--meas", required=True)
    p.add_argument("--pan")
    p.add_argument("--mask", required=True)
    p.add_argument("--dims", required=True)
    p.add_argument("--out", required=True)
    for f in fields(solver.SolverParams):
        iters = f.name == "max_iter"
        flag = "--iters" if iters else "--" + f.name.replace("_", "-")
        p.add_argument(flag, dest=f.name, type=type(f.default), default=f.default,
                       metavar="ITERS" if iters else None)
    p.add_argument("--log")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("evaluate", help="quality indexes between two cubes")
    p.add_argument("--ref", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("preview", help="render a cube to an RGB image")
    p.add_argument("--cube", required=True)
    p.add_argument("--wl-start", type=float, default=400.0)
    p.add_argument("--wl-step", type=float, default=10.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_preview)

    p = sub.add_parser(
        "spectrum-diag", help="sorted core magnitudes of one nonlocal group"
    )
    p.add_argument("--cube", required=True)
    p.add_argument("--anchor", required=True)
    p.add_argument("--s", type=int, default=defaults.s)
    p.add_argument("--k", type=int, default=defaults.k)
    p.add_argument("--window", type=int, default=defaults.window)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectrum_diag)

    return parser


def cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # from argparse, which has printed usage or help
        return e.code
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (HsreconError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
