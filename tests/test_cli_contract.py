"""The CLI contract as a property: whatever its arguments, ``cli(argv)``
returns 0, 1 or 2, raises nothing and prints no traceback.

Each example takes a small legal command line, changes up to two of its
options at random, and then runs every alternative of one option: bad
numbers, bad lists, missing, wrong-kind or header-fuzzed files, unwritable
outputs, or the option dropped. Legal runs stay small: ``--iters`` is at
most 2, and ``--k`` is either at most 60 or at least 10**12, which must
fail before allocating anything.
"""
import contextlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_smooth_cube

from hsrecon import fileio
from hsrecon.cli import cli

ROWS, COLS, BANDS = 12, 12, 4

# Zero, negative, not finite, not a number, and integers far past any size.
_BAD = ["0", "-1", "nan", "inf", "-inf", "x", "", "1e12", "1000000000000",
        "99999999999999999999"]
# What may stand in for an option's legal value; None drops the option.
_NUMBERS = [None, *_BAD, "1", "3", "60"]
_ITERS = ["0", "-1", "nan", "inf", "x", "", "1"]  # never dropped: the default is 600
_INPUTS = [None, "cube.hsc", "meas.hsp", "mask.hsp", "pan.hsp", "zeros.hsp", "half.hsp",
           "text.txt", "dir", "missing.hsc", "fuzz.bin"]
_OUTPUTS = [None, "dir", "missing/out", "out.bin"]


def _int_lists(legal):
    """``legal`` with one entry bad, too few or too many entries, or dropped."""
    parts = legal.split(",")
    swapped = [",".join(parts[:i] + [bad] + parts[i + 1:])
               for i in range(len(parts)) for bad in _BAD]
    return [None, *swapped, ",".join(parts[:-1]), legal + ",1"]


# The legal value of every option of each command, and its alternatives.
_COMMANDS = {
    "simulate": {
        "--cube": ("cube.hsc", _INPUTS),
        "--mode": ("dcchi", [None, "cassi", "other"]),
        "--seed": ("1", _NUMBERS),
        "--p": ("0.5", _NUMBERS),
        "--noise-sigma": ("0.01", _NUMBERS),
        "--out-meas": ("out-meas.hsp", _OUTPUTS),
        "--out-mask": ("out-mask.hsp", _OUTPUTS),
        "--out-pan": ("out-pan.hsp", _OUTPUTS),
    },
    "reconstruct": {
        "--meas": ("meas.hsp", _INPUTS),
        "--pan": ("pan.hsp", _INPUTS),
        "--mask": ("mask.hsp", _INPUTS),
        "--dims": ("12,12,4", _int_lists("12,12,4")),
        "--tau": ("1", _NUMBERS),
        "--c": ("0.0055", _NUMBERS),
        "--s": ("3", _NUMBERS),
        "--step": ("2", _NUMBERS),
        "--k": ("6", _NUMBERS),
        "--window": ("3", _NUMBERS),
        "--iters": ("2", _ITERS),
        "--rematch-every": ("1", _NUMBERS),
        "--log": ("log.csv", _OUTPUTS),
        "--out": ("out.hsc", _OUTPUTS),
    },
    "evaluate": {
        "--ref": ("cube.hsc", _INPUTS),
        "--est": ("cube.hsc", _INPUTS),
        "--out": ("out.csv", _OUTPUTS),
    },
    "preview": {
        "--cube": ("cube.hsc", _INPUTS),
        "--wl-start": ("400", _NUMBERS),
        "--wl-step": ("10", _NUMBERS),
        "--out": ("out.ppm", _OUTPUTS),
    },
    "spectrum-diag": {
        "--cube": ("cube.hsc", _INPUTS),
        "--anchor": ("3,3", _int_lists("3,3")),
        "--s": ("3", _NUMBERS),
        "--k": ("6", _NUMBERS),
        "--window": ("3", _NUMBERS),
        "--out": ("out.csv", _OUTPUTS),
    },
}

# A header as in test_fileio's fuzz: either magic, sizes whose product may
# wrap in int64, and a short payload.
_FUZZ = st.tuples(
    st.sampled_from([b"HSC1", b"HSP1", b"XXXX"]),
    st.lists(st.one_of(st.integers(0, 12), st.sampled_from([2**31, 2**32 - 1])),
             min_size=2, max_size=3),
    st.binary(max_size=64),
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    fileio.write_cube(make_smooth_cube(ROWS, COLS, BANDS, seed=3), d / "cube.hsc")
    names = {"--out-meas": "meas.hsp", "--out-mask": "mask.hsp", "--out-pan": "pan.hsp"}
    assert cli(["simulate", "--cube", str(d / "cube.hsc"), "--mode", "dcchi"]
               + [f"{opt}={d / name}" for opt, name in names.items()]) == 0
    fileio.write_plane(np.zeros((ROWS, COLS)), d / "zeros.hsp")  # a legal, all-closed mask
    fileio.write_plane(np.full((ROWS, COLS), 0.5), d / "half.hsp")  # a plane, not a mask
    (d / "text.txt").write_text("rank,magnitude\n")
    (d / "dir").mkdir()
    return d


def _arg(files, opt, value, alternatives):
    if alternatives is _INPUTS or alternatives is _OUTPUTS:
        value = files / value
    return [f"{opt}={value}"]


@pytest.mark.parametrize("command, option", [(c, o) for c in _COMMANDS for o in _COMMANDS[c]])
@settings(deadline=None, max_examples=4)
@given(data=st.data())
def test_cli_returns_an_exit_code_and_never_raises(files, command, option, data):
    options = _COMMANDS[command]
    others = sorted(set(options) - {option})
    changed = data.draw(st.sets(st.sampled_from(others), max_size=2), label="changed")
    magic, dims, payload = data.draw(_FUZZ, label="fuzz.bin")
    (files / "fuzz.bin").write_bytes(magic + struct.pack(f"<{len(dims)}I", *dims) + payload)
    argv = [command]
    for opt in others:
        value, alternatives = options[opt]
        if opt in changed:
            value = data.draw(st.sampled_from(alternatives), label=opt)
        if value is not None:
            argv += _arg(files, opt, value, alternatives)
    for value in options[option][1]:
        run = argv if value is None else argv + _arg(files, option, value, options[option][1])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli(run)
        assert code in (0, 1, 2), (run, code)
        assert "Traceback" not in err.getvalue(), run
