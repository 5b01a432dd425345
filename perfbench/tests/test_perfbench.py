"""Tests of the benchmark's own code: spec, inputs, output checks, spans."""
import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(ROOT / "src"))

import job  # noqa: E402
import scenes  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import check_hashes, mask_seed, tail  # noqa: E402

from hsrecon import fileio, imaging, solver  # noqa: E402


def _acceptance_conftest():
    spec = importlib.util.spec_from_file_location(
        "hsrecon_tests_conftest", ROOT / "tests" / "conftest.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("shape", [(64, 64, 8), (32, 32, 31)])
def test_scene_seed_42_is_the_acceptance_scene_bitwise(shape):
    expect = _acceptance_conftest().make_tucker_scene(shape=shape, ranks=(6, 6, 3), seed=42)
    got = scenes.make_tucker_scene(shape, workloads.TUCKER_RANKS, workloads.SCENE_SEED)
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


def test_mask_matches_library_generator_bitwise():
    for seed in (0, 42, 7919):
        got = scenes.make_mask(64, 64, workloads.MASK_P, seed)
        assert got.tobytes() == imaging.generate_mask(64, 64, 0.5, seed).tobytes()


def test_hsc1_reader_and_writer_agree_with_fileio(tmp_path):
    cube = np.random.default_rng(3).random((5, 6, 4))
    scenes.write_hsc1(cube, tmp_path / "a.hsc")
    fileio.write_cube(cube, tmp_path / "b.hsc")
    assert (tmp_path / "a.hsc").read_bytes() == (tmp_path / "b.hsc").read_bytes()
    cube32 = fileio.read_cube(tmp_path / "a.hsc")
    assert np.array_equal(scenes.read_hsc1(tmp_path / "a.hsc"), cube32)


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_units_and_counts():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    e2e, layer = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    names = [m["name"] for m in e2e + layer] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for n in names:
        assert name.fullmatch(n), n
    for m in e2e + layer:
        assert unit.fullmatch(m["unit"]) and m["better"] in ("lower", "higher"), m
    for m in e2e:
        assert 0 < m["bound"] <= 0.25, m
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_per_layer_names_are_what_the_trace_reports():
    """Each per-layer name is a summarize() key or names a real function."""
    import importlib

    always = set(spans.summarize(spans.Tracer("empty"))) | {"trace.overhead_ratio"}
    for m in SPEC["per_layer"]:
        n = m["name"]
        if n in always:
            continue
        layer, rest = n.split(".", 1)
        fn, stat = rest.rsplit(".", 1)
        if layer == "cli" and stat == "s":
            assert fn in ("simulate", "reconstruct", "evaluate", "preview"), n
            continue
        assert layer in spans.LAYERS and stat in ("calls", "self_s"), n
        mod = importlib.import_module(f"hsrecon.{layer}")
        assert callable(getattr(mod, fn, None)) and not fn.startswith("_"), n


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tail([float(x) for x in range(40, 0, -1)]) == (30.0, 75.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_output_hash_must_match_first_output_of_same_sources_and_mask(tmp_path):
    store = tmp_path / "hashes.json"
    run1 = [{"seed": 7, "hash": "a", "problems": []}, {"seed": 1007, "hash": "c", "problems": []},
            {"seed": 2007, "problems": ["job failed: boom"]}]
    check_hashes(run1, store, "src1:desk_cassi:env1")
    assert [j["problems"] for j in run1] == [[], [], ["job failed: boom"]]
    run2 = [{"seed": 7, "hash": "b", "problems": []}, {"seed": 1007, "hash": "c", "problems": []}]
    check_hashes(run2, store, "src1:desk_cassi:env1")  # a later run of the same sources
    assert "differs from a" in run2[0]["problems"][0] and run2[1]["problems"] == []
    run3 = [{"seed": 7, "hash": "b", "problems": []}]
    check_hashes(run3, store, "src2:desk_cassi:env1")  # other sources start afresh
    check_hashes(run3, store, "src1:desk_cassi:env2")  # so does another toolchain or CPU
    assert run3[0]["problems"] == []


def test_mask_seeds_differ_per_job_and_job_0_keeps_the_run_seed():
    assert [mask_seed(42, i) for i in range(4)] == [42, 1042, 2042, 3042]


def _good_output(w):
    rec = np.full(w.shape, 0.5)
    return rec, [0.1 * i for i in range(1, w.iters + 1)], {"psnr_db": 99.0, "ssim": 0.99}


def test_check_accepts_good_output_and_names_each_fault():
    w = workloads.WORKLOADS["desk_cassi"]
    rec, stamps, quality = _good_output(w)
    assert job.check(w, rec, stamps, quality) == []
    bad = rec.copy()
    bad[0, 0, 0] = np.nan
    assert job.check(w, bad, stamps, quality) == ["non-finite values"]
    assert "outside [0, 1]" in job.check(w, rec + 0.6, stamps, quality)[0]
    assert "shape" in job.check(w, rec[:-1], stamps, quality)[0]
    assert "progress records" in job.check(w, rec, stamps[:-1], quality)[0]
    low = {"psnr_db": w.psnr_floor_db - 1.0, "ssim": w.ssim_floor - 0.01}
    assert [p.split()[0] for p in job.check(w, rec, stamps, low)] == ["PSNR", "SSIM"]


def test_self_times_on_nested_tree():
    # 0 [0, 10] with 0.5 s of hook time; 1 [1, 4] under 0 with 2 [2, 3]; 3 [5, 9] under 0.
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    excluded = [0.5, 0.0, 0.0, 0.0]
    assert spans.self_times(parents, starts, ends, excluded) == [2.5, 2.0, 1.0, 4.0]


def test_rematch_changed_ratio_on_toy_groups():
    rc = spans.RematchCounter()
    rc.observe(0, (0, 0), [(0, 0), (1, 1)])
    rc.observe(0, (4, 4), [(4, 4), (5, 5)])
    assert (rc.rematched, rc.ratio) == (0, 0.0)
    rc.observe(0, (0, 0), [[0, 0], [1, 1]])  # same members
    rc.observe(0, (4, 4), [(4, 4), (3, 3)])  # changed
    rc.observe(9, (0, 0), [(0, 0), (2, 2)])  # first match under another call
    assert (rc.rematched, rc.changed, rc.ratio) == (2, 1, 0.5)


def test_cg_iters_counts_normal_operator_calls_per_solve():
    names = ["solver.reconstruct", "solver.cg_solve_image", "imaging.apply_normal_operator",
             "imaging.apply_normal_operator", "imaging.apply_normal_operator",
             "solver.cg_solve_image", "imaging.apply_normal_operator",
             "imaging.apply_normal_operator"]
    parents = [-1, 0, 1, 1, 1, 0, 5, 0]  # the last call is outside any solve
    assert spans.cg_iters(names, parents) == [3, 1]


def test_core_zero_frac_from_wrapped_shrink_core():
    tr = spans.Tracer("toy")
    shrink = spans.wrap(tr, "solver.shrink_core", solver.shrink_core)
    g = np.array([0.5, -0.01, 2.0, 0.0, -0.3, 0.02]).reshape(1, 2, 3)
    out = shrink(g, np.full(g.shape, 0.1), 1.0)  # threshold 0.05: three zeros
    assert np.array_equal(out, solver.shrink_core(g, np.full(g.shape, 0.1), 1.0))
    shrink(np.zeros((2, 1, 1)), np.ones((2, 1, 1)), 1.0)  # two more zeros
    summary = spans.summarize(tr)
    assert summary["solver.core_zero_frac"] == 5 / 8
    assert tr.names == ["solver.shrink_core"] * 2


def test_wrapper_returns_exactly_what_the_function_returns():
    tr = spans.Tracer("toy")
    sentinel = object()

    def inner(x, *, y):
        return sentinel if x == y else [x, y]

    def outer(x):
        return wrapped_inner(x, y=x)

    wrapped_inner = spans.wrap(tr, "tensors.inner", inner)
    wrapped_outer = spans.wrap(tr, "tensors.outer", outer)
    assert wrapped_outer(1) is sentinel
    assert wrapped_inner(1, y=2) == [1, 2]
    assert tr.names == ["tensors.outer", "tensors.inner", "tensors.inner"]
    assert tr.parents == [-1, 0, -1]


def test_wrapper_records_and_reraises_errors():
    tr = spans.Tracer("toy")

    def boom():
        raise imaging.DimensionError("bad")

    with pytest.raises(imaging.DimensionError, match="bad"):
        spans.wrap(tr, "imaging.boom", boom)()
    assert tr.errors == [True] and tr.stack == []
    assert spans.summarize(tr)["imaging.errors"] == 1
