import dataclasses
import errno
import resource
import warnings

import numpy as np
import pytest

from conftest import make_smooth_cube, make_tucker_scene

from hsrecon import fileio, metrics, patches, solver
from hsrecon.cli import build_parser, cli
from hsrecon.tensors import hosvd


@pytest.fixture
def cube_file(tmp_path):
    cube = make_smooth_cube(16, 16, 4, seed=1)
    path = tmp_path / "truth.hsc"
    fileio.write_cube(cube, path)
    return path


def _simulate(tmp_path, cube_file, mode="cassi", extra=()):
    args = [
        "simulate",
        "--cube", str(cube_file),
        "--mode", mode,
        "--seed", "3",
        "--p", "0.5",
        "--out-meas", str(tmp_path / "meas.hsp"),
        "--out-mask", str(tmp_path / "mask.hsp"),
    ]
    if mode == "dcchi":
        args += ["--out-pan", str(tmp_path / "pan.hsp")]
    return cli(args + list(extra))


def _reconstruct(tmp_path, pan=False, out="recon.hsc", log=True):
    args = [
        "reconstruct",
        "--meas", str(tmp_path / "meas.hsp"),
        "--mask", str(tmp_path / "mask.hsp"),
        "--dims", "16,16,4",
        "--out", str(tmp_path / out),
        "--s", "4", "--step", "3", "--k", "6", "--window", "4",
        "--iters", "8",
    ]
    if log:
        args += ["--log", str(tmp_path / "progress.csv")]
    if pan:
        args += ["--pan", str(tmp_path / "pan.hsp")]
    return cli(args)


def test_pipeline_smoke(tmp_path, cube_file):
    assert _simulate(tmp_path, cube_file) == 0
    assert _reconstruct(tmp_path) == 0
    assert (
        cli(
            [
                "evaluate",
                "--ref", str(cube_file),
                "--est", str(tmp_path / "recon.hsc"),
                "--out", str(tmp_path / "report.csv"),
            ]
        )
        == 0
    )
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert lines[0].startswith("psnr_db,ssim,ergas,rmse")
    progress = (tmp_path / "progress.csv").read_text().strip().splitlines()
    assert progress[0] == "iter,residual,seconds"
    assert len(progress) == 9


def test_invalid_probability_exit_code(tmp_path, cube_file):
    code = _simulate(tmp_path, cube_file, extra=("--p", "1.5"))
    assert code == 2


def test_missing_file_exit_code(tmp_path):
    code = cli(
        [
            "evaluate",
            "--ref", str(tmp_path / "nope.hsc"),
            "--est", str(tmp_path / "nope.hsc"),
            "--out", str(tmp_path / "r.csv"),
        ]
    )
    assert code == 1


def test_preview(tmp_path, cube_file):
    out = tmp_path / "img.ppm"
    assert (
        cli(
            [
                "preview",
                "--cube", str(cube_file),
                "--wl-start", "400",
                "--wl-step", "10",
                "--out", str(out),
            ]
        )
        == 0
    )
    assert out.read_bytes().startswith(b"P6\n16 16\n255\n")


def test_spectrum_diag(tmp_path, cube_file):
    out = tmp_path / "sv.csv"
    code = cli(
        [
            "spectrum-diag",
            "--cube", str(cube_file),
            "--anchor", "4,4",
            "--s", "4", "--k", "6", "--window", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "rank,magnitude"
    mags = [float(line.split(",")[1]) for line in lines[1:]]
    assert mags == sorted(mags, reverse=True)


@pytest.mark.parametrize("scene", ["cube_file", "tucker"])
def test_spectrum_diag_matches_reference_path(tmp_path, cube_file, scene):
    # match_blocks + build_group + hosvd against the batched path the command runs
    if scene == "tucker":
        cube_file = tmp_path / "tucker.hsc"
        fileio.write_cube(make_tucker_scene(), cube_file)
        anchor, s, k, window = (10, 12), 5, 45, 20
    else:
        anchor, s, k, window = (4, 4), 4, 6, 4
    out = tmp_path / "sv.csv"
    args = ["spectrum-diag", "--cube", str(cube_file), "--anchor", "%d,%d" % anchor,
            "--s", str(s), "--k", str(k), "--window", str(window), "--out", str(out)]
    assert cli(args) == 0
    got = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    cube = fileio.read_cube(cube_file)
    group = patches.build_group(cube, patches.match_blocks(cube, anchor, s, k, window), s)
    expect = np.sort(np.abs(hosvd(group).core).ravel())[::-1]
    assert len(got) == expect.size
    assert np.max(np.abs(np.array(got) - expect)) <= 1e-9 * expect[0]


@pytest.mark.parametrize("s", ["0", "-2"])
def test_spectrum_diag_bad_patch_size_exit_code(tmp_path, cube_file, capsys, s):
    out = tmp_path / "sv.csv"
    args = ["spectrum-diag", "--cube", str(cube_file), "--anchor", "4,4", "--s", s,
            "--out", str(out)]
    assert cli(args) == 2
    err = capsys.readouterr().err
    assert "patch size" in err and "Traceback" not in err
    assert not out.exists()


def test_parser_defaults_are_solver_params():
    d = solver.SolverParams()
    parser = build_parser()
    rec = parser.parse_args(["reconstruct", "--meas", "m", "--mask", "k", "--dims", "1,1,1",
                             "--out", "o"])
    names = [f.name for f in dataclasses.fields(solver.SolverParams)]
    assert {name: getattr(rec, name) for name in names} == dataclasses.asdict(d)
    diag = parser.parse_args(["spectrum-diag", "--cube", "c", "--anchor", "0,0", "--out", "o"])
    assert (diag.s, diag.k, diag.window) == (d.s, d.k, d.window)


def test_deterministic_outputs(tmp_path, cube_file):
    _simulate(tmp_path, cube_file)
    _reconstruct(tmp_path, out="r1.hsc")
    _reconstruct(tmp_path, out="r2.hsc")
    assert (tmp_path / "r1.hsc").read_bytes() == (tmp_path / "r2.hsc").read_bytes()


def test_dcchi_beats_cassi(tmp_path, cube_file):
    truth = fileio.read_cube(cube_file)
    _simulate(tmp_path, cube_file, mode="dcchi")
    assert _reconstruct(tmp_path, pan=True, out="dcchi.hsc") == 0
    assert _reconstruct(tmp_path, pan=False, out="cassi.hsc") == 0
    psnr_d = metrics.psnr(truth, fileio.read_cube(tmp_path / "dcchi.hsc"))
    psnr_c = metrics.psnr(truth, fileio.read_cube(tmp_path / "cassi.hsc"))
    assert psnr_d >= psnr_c


def test_rematch_every_zero_exit_code(tmp_path, cube_file, capsys):
    assert _simulate(tmp_path, cube_file) == 0
    args = [
        "reconstruct",
        "--meas", str(tmp_path / "meas.hsp"),
        "--mask", str(tmp_path / "mask.hsp"),
        "--dims", "16,16,4",
        "--out", str(tmp_path / "recon.hsc"),
        "--rematch-every", "0",
    ]
    assert cli(args) == 2
    err = capsys.readouterr().err
    assert "rematch_every" in err and "Traceback" not in err
    assert not (tmp_path / "recon.hsc").exists()


@pytest.mark.parametrize("anchor", ["x,1", "1,y", "1.5,2", f"{10**30},0"])
def test_spectrum_diag_bad_anchor_exit_code(tmp_path, cube_file, capsys, anchor):
    code = cli(
        [
            "spectrum-diag",
            "--cube", str(cube_file),
            "--anchor", anchor,
            "--out", str(tmp_path / "sv.csv"),
        ]
    )
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_simulate_dcchi_without_pan_writes_nothing(tmp_path, cube_file, capsys):
    args = [
        "simulate",
        "--cube", str(cube_file),
        "--mode", "dcchi",
        "--out-meas", str(tmp_path / "meas.hsp"),
        "--out-mask", str(tmp_path / "mask.hsp"),
    ]
    assert cli(args) == 2
    err = capsys.readouterr().err
    assert "--out-pan" in err and "Traceback" not in err
    assert list(tmp_path.glob("*.hsp")) == []


def test_simulate_cassi_with_pan_writes_nothing(tmp_path, cube_file, capsys):
    assert _simulate(tmp_path, cube_file, extra=("--out-pan", str(tmp_path / "pan.hsp"))) == 2
    err = capsys.readouterr().err
    assert "--out-pan" in err and "Traceback" not in err
    assert list(tmp_path.glob("*.hsp")) == []


@pytest.mark.parametrize("sigma", ["-0.5", "nan", "inf"])
def test_simulate_bad_noise_sigma_exit_code(tmp_path, cube_file, capsys, sigma):
    assert _simulate(tmp_path, cube_file, extra=("--noise-sigma", sigma)) == 2
    err = capsys.readouterr().err
    assert "noise-sigma" in err and "Traceback" not in err
    assert list(tmp_path.glob("*.hsp")) == []


def test_simulate_noise_beyond_float32_exit_code(tmp_path, cube_file, capsys):
    # the noisy measurement is finite in float64 but overflows the file's float32
    assert _simulate(tmp_path, cube_file, extra=("--noise-sigma", "1e39")) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert list(tmp_path.glob("*.hsp")) == []


def test_reconstruct_step_beyond_patch_size_exit_code(tmp_path, capsys):
    # the input files do not exist: exit 2, not 1, shows nothing was read
    args = [
        "reconstruct",
        "--meas", str(tmp_path / "meas.hsp"),
        "--mask", str(tmp_path / "mask.hsp"),
        "--dims", "12,12,4",
        "--out", str(tmp_path / "recon.hsc"),
        "--s", "3", "--step", "60",
    ]
    assert cli(args) == 2
    err = capsys.readouterr().err
    assert "step" in err and "Traceback" not in err
    assert not (tmp_path / "recon.hsc").exists()


def test_reconstruct_dims_mismatch_exit_code(tmp_path, cube_file, capsys):
    assert _simulate(tmp_path, cube_file) == 0
    args = [
        "reconstruct",
        "--meas", str(tmp_path / "meas.hsp"),
        "--mask", str(tmp_path / "mask.hsp"),
        "--dims", "20,20,4",
        "--out", str(tmp_path / "recon.hsc"),
    ]
    assert cli(args) == 2
    err = capsys.readouterr().err
    assert "20x20" in err and "16x16" in err and "Traceback" not in err
    assert not (tmp_path / "recon.hsc").exists()


def test_reconstruct_band_count_mismatch_exit_code(tmp_path, cube_file, capsys):
    # 4 bands fill 16 + 3 detector rows; --dims asks for 5 bands, 16 + 4 rows
    assert _simulate(tmp_path, cube_file) == 0
    args = [
        "reconstruct",
        "--meas", str(tmp_path / "meas.hsp"),
        "--mask", str(tmp_path / "mask.hsp"),
        "--dims", "16,16,5",
        "--out", str(tmp_path / "recon.hsc"),
    ]
    assert cli(args) == 1
    err = capsys.readouterr().err
    assert "(19, 16)" in err and "(20, 16)" in err and "Traceback" not in err
    assert not (tmp_path / "recon.hsc").exists()


def test_reconstruct_band_count_mismatch_leaves_no_log(tmp_path, cube_file, capsys):
    assert _simulate(tmp_path, cube_file) == 0
    log = tmp_path / "l.csv"
    args = [
        "reconstruct",
        "--meas", str(tmp_path / "meas.hsp"),
        "--mask", str(tmp_path / "mask.hsp"),
        "--dims", "16,16,5",
        "--out", str(tmp_path / "recon.hsc"),
        "--log", str(log),
    ]
    assert cli(args) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not log.exists()
    assert not (tmp_path / "recon.hsc").exists()


def test_reconstruct_unwritable_log_writes_no_cube(tmp_path, cube_file, capsys):
    # the log is opened at the first progress row, so this fails after one iteration
    assert _simulate(tmp_path, cube_file) == 0
    args = [
        "reconstruct",
        "--meas", str(tmp_path / "meas.hsp"),
        "--mask", str(tmp_path / "mask.hsp"),
        "--dims", "16,16,4",
        "--out", str(tmp_path / "recon.hsc"),
        "--log", str(tmp_path / "missing" / "l.csv"),
    ]
    assert cli(args) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "recon.hsc").exists()


def test_reconstruct_unsizable_band_count_exit_code(tmp_path, cube_file, capsys):
    assert _simulate(tmp_path, cube_file) == 0
    args = [
        "reconstruct",
        "--meas", str(tmp_path / "meas.hsp"),
        "--mask", str(tmp_path / "mask.hsp"),
        "--dims", f"16,16,{10**20}",
        "--out", str(tmp_path / "recon.hsc"),
    ]
    assert cli(args) == 2
    err = capsys.readouterr().err
    assert "bands" in err and "Traceback" not in err
    assert not (tmp_path / "recon.hsc").exists()


def test_reconstruct_non_binary_mask_exit_code(tmp_path, cube_file, capsys):
    assert _simulate(tmp_path, cube_file) == 0
    fileio.write_plane(np.full((16, 16), 0.5), tmp_path / "mask.hsp")
    log = tmp_path / "l.csv"
    args = [
        "reconstruct",
        "--meas", str(tmp_path / "meas.hsp"),
        "--mask", str(tmp_path / "mask.hsp"),
        "--dims", "16,16,4",
        "--out", str(tmp_path / "recon.hsc"),
        "--log", str(log),
    ]
    assert cli(args) == 1
    err = capsys.readouterr().err
    assert "mask" in err and "Traceback" not in err
    assert not log.exists()
    assert not (tmp_path / "recon.hsc").exists()


@pytest.mark.parametrize("pan", [False, True])
def test_reconstruct_without_log_computes_no_residual(tmp_path, cube_file, monkeypatch, pan):
    assert _simulate(tmp_path, cube_file, mode="dcchi" if pan else "cassi") == 0
    assert _reconstruct(tmp_path, pan=pan, out="logged.hsc") == 0

    def data_fit(*args):
        raise AssertionError("data-fit residual computed without --log")

    monkeypatch.setattr(solver, "_data_fit", data_fit)
    assert _reconstruct(tmp_path, pan=pan, out="unlogged.hsc", log=False) == 0
    assert (tmp_path / "unlogged.hsc").read_bytes() == (tmp_path / "logged.hsc").read_bytes()


def test_simulate_negative_seed_exit_code(tmp_path, cube_file, capsys):
    assert _simulate(tmp_path, cube_file, extra=("--seed", "-1")) == 2
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err
    assert list(tmp_path.glob("*.hsp")) == []


@pytest.mark.parametrize("k, code", [("99999999999999999999", 2), ("1000000000000", 1)])
@pytest.mark.parametrize("command", ["reconstruct", "spectrum-diag"])
def test_huge_k_fails_fast_without_allocating(tmp_path, capsys, command, k, code):
    # 10**20 members cannot be sized (exit 2); 10**12 would take terabytes (exit 1)
    cube = tmp_path / "cube.hsc"
    fileio.write_cube(make_smooth_cube(12, 12, 4, seed=2), cube)
    out = tmp_path / "out.bin"
    if command == "reconstruct":
        assert _simulate(tmp_path, cube) == 0
        args = ["reconstruct", "--meas", str(tmp_path / "meas.hsp"),
                "--mask", str(tmp_path / "mask.hsp"), "--dims", "12,12,4", "--iters", "1"]
    else:
        args = ["spectrum-diag", "--cube", str(cube), "--anchor", "3,3"]
    capsys.readouterr()
    # Peak RSS, not tracemalloc: NumPy reports the refused allocation to it.
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert cli(args + ["--k", k, "--out", str(out)]) == code
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 64 << 10  # KiB
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_log_row_on_disk_when_progress_returns(tmp_path, cube_file, monkeypatch):
    assert _simulate(tmp_path, cube_file) == 0
    log = tmp_path / "progress.csv"
    seen = []
    real = solver.reconstruct

    def reconstruct(y, sys, p, progress):
        def check(it, residual, seconds):
            progress(it, residual, seconds)
            rows = log.read_text().splitlines()
            seen.append(it)
            assert rows[0] == "iter,residual,seconds"
            assert rows[-1].startswith(f"{it},") and len(rows) == it + 1

        return real(y, sys, p, progress=check)

    monkeypatch.setattr(solver, "reconstruct", reconstruct)
    assert _reconstruct(tmp_path) == 0
    assert seen == list(range(1, 9))


def _fail_replace(src, dst):
    raise OSError(errno.EXDEV, "injected rename failure")


@pytest.mark.parametrize("command", ["evaluate", "spectrum-diag"])
def test_text_output_failure_keeps_earlier_file(tmp_path, cube_file, monkeypatch, capsys,
                                                command):
    out = tmp_path / "out.csv"
    out.write_text("earlier\n")
    args = {
        "evaluate": ["evaluate", "--ref", str(cube_file), "--est", str(cube_file)],
        "spectrum-diag": ["spectrum-diag", "--cube", str(cube_file), "--anchor", "4,4",
                          "--s", "4", "--k", "6", "--window", "4"],
    }[command]
    monkeypatch.setattr(fileio.os, "replace", _fail_replace)
    assert cli(args + ["--out", str(out)]) == 1
    assert "injected" in capsys.readouterr().err
    assert out.read_text() == "earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "truth.hsc"]


@pytest.mark.parametrize("flag,value", [("--tau", "nan"), ("--tau", "inf"), ("--tau", "1e308"),
                                        ("--c", "nan"), ("--c", "inf")])
def test_reconstruct_non_finite_real_exit_code(tmp_path, capsys, flag, value):
    # the input files do not exist: exit 2, not 1, shows nothing was read
    args = [
        "reconstruct",
        "--meas", str(tmp_path / "meas.hsp"),
        "--mask", str(tmp_path / "mask.hsp"),
        "--dims", "16,16,4",
        "--out", str(tmp_path / "recon.hsc"),
        flag, value,
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli(args) == 2
    err = capsys.readouterr().err
    assert flag[2:] in err and "Traceback" not in err
    assert not (tmp_path / "recon.hsc").exists()


@pytest.mark.parametrize("flag,value", [("--wl-start", "nan"), ("--wl-start", "inf"),
                                        ("--wl-step", "nan"), ("--wl-step", "-inf")])
def test_preview_non_finite_wavelength_exit_code(tmp_path, cube_file, capsys, flag, value):
    out = tmp_path / "img.ppm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli(["preview", "--cube", str(cube_file), f"{flag}={value}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "wavelengths" in err and "Traceback" not in err
    assert list(tmp_path.glob("*.ppm")) == []


def test_evaluate_all_zero_reference_reports_nan_ergas(tmp_path, capsys):
    zero = tmp_path / "zero.hsc"
    fileio.write_cube(np.zeros((12, 12, 4)), zero)
    out = tmp_path / "report.csv"
    assert cli(["evaluate", "--ref", str(zero), "--est", str(zero), "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert header == "psnr_db,ssim,ergas,rmse," + ",".join(f"band{i}_psnr_db" for i in range(4))
    report = dict(zip(header.split(","), row.split(",")))
    assert float(report["psnr_db"]) == metrics.PSNR_CAP_DB
    assert report["ergas"] == "nan"
    assert float(report["rmse"]) == 0.0
    assert "ERGAS      nan" in capsys.readouterr().out


def test_evaluate_planes_smaller_than_the_ssim_window_report_nan_ssim(tmp_path, capsys):
    ref, est = tmp_path / "ref.hsc", tmp_path / "est.hsc"
    cube = make_smooth_cube(10, 10, 4, seed=2)
    fileio.write_cube(cube, ref)
    fileio.write_cube(0.9 * cube + 0.05, est)  # PSNR, RMSE and ERGAS are defined here
    out = tmp_path / "report.csv"
    assert cli(["evaluate", "--ref", str(ref), "--est", str(est), "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    report = dict(zip(header.split(","), row.split(",")))
    assert report["ssim"] == "nan"
    assert float(report["psnr_db"]) == pytest.approx(metrics.psnr(cube, 0.9 * cube + 0.05))
    assert "SSIM       nan" in capsys.readouterr().out


def test_evaluate_zero_size_cube_exit_code(tmp_path, capsys):
    empty = tmp_path / "empty.hsc"
    empty.write_bytes(b"HSC1" + bytes(4) + (4).to_bytes(4, "little") * 2)  # rows = 0
    code = cli(["evaluate", "--ref", str(empty), "--est", str(empty),
                "--out", str(tmp_path / "report.csv")])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()
