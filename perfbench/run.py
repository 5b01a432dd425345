"""hsrecon benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload desk_cassi --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 42      # every workload

Run from the root of a source checkout; metric names, units and the
default ``--seconds`` come from its ``BENCHMARK.json``. Each job is a fresh
Python process (``job.py``) that imports hsrecon from ``src/`` with one
BLAS thread, runs the workload once on inputs generated here from
``--seed``, and checks its output. ``--trace 0`` runs the workload's fixed
number of untraced jobs (scaled by ``--seconds`` over the benchmark's
run_seconds) and reports the end-to-end metrics as medians over them.
``--trace 1`` runs one untraced and one traced job and reports the
per-layer metrics of the traced one. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record (environment, per-job numbers) goes to
``.perfbench_out/``, and the traced job's spans next to it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
DEADLINE_FACTOR = 4  # a run still going after 4x --seconds has a hung job
SINGLE_THREAD = {k: "1" for k in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples above it.

    Nearest rank: the (n-10)-th smallest value is the p = 100*(n-10)/n
    percentile. With ten samples or fewer, the maximum (p100).
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def mask_seed(seed: int, i: int) -> int:
    """Mask seed of job ``i`` of a run: job 0 keeps the run's seed.

    Each job gets its own mask so that a run's quality is a median over
    masks, not the luck of one; seed 42's job 0 is the acceptance mask.
    """
    return seed + 1000 * i


def write_inputs(w, mask_seeds: list[int], work: Path) -> None:
    import numpy as np

    from scenes import make_mask, make_tucker_scene, write_hsc1

    truth = make_tucker_scene(w.shape, workloads.TUCKER_RANKS, workloads.SCENE_SEED)
    if w.kind == "cli":
        write_hsc1(truth, work / "truth.hsc")  # the CLI draws the mask from --seed
        return
    np.save(work / "truth.npy", truth)
    for s in mask_seeds:
        np.save(work / f"mask-{s}.npy", make_mask(w.shape[0], w.shape[1], workloads.MASK_P, s))


def run_job(root: Path, w, seed: int, work: Path, tag: str, spans: Path | None,
            deadline: float) -> dict:
    """Run job.py in a fresh process; return its result, or a failure record.

    The job is killed if it is still running at ``deadline`` (perf_counter).
    """
    out = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "job.py"), "--root", str(root), "--workload", w.name,
           "--seed", str(seed), "--inputs", str(work), "--out", str(out), "--run-id", tag]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    t = time.perf_counter()
    timeout = max(deadline - t, 1.0)
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"run_id": tag, "seed": seed, "problems": [f"timed out after {timeout:.0f} s"],
                "wall_s": timeout}
    wall = time.perf_counter() - t
    if proc.returncode != 0 or not out.is_file():
        err = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"run_id": tag, "seed": seed, "problems": [f"job failed: {err[0]}"],
                "wall_s": wall}
    result = json.loads(out.read_text())
    result["wall_s"] = wall
    return result


def source_digest(root: Path) -> str:
    """Hash of the program and benchmark sources: the 'commit' of a checkout."""
    h = hashlib.sha256()
    for base in (root / "src", HERE):
        for p in sorted(base.rglob("*.py")):
            h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def check_hashes(jobs: list[dict], store: Path, context: str) -> None:
    """Fail each job whose output differs from the first one seen for its key.

    The key is ``context`` (sources, workload and numeric environment) and
    the job's mask seed, so the first output may come from this run or from
    an earlier run of the same checkout on the same toolchain and CPU.
    """
    known = json.loads(store.read_text()) if store.is_file() else {}
    for j in jobs:
        if "hash" in j:
            ref = known.setdefault(f"{context}:{j['seed']}", j["hash"])
            if j["hash"] != ref:
                j["problems"].append(f"output hash {j['hash'][:12]} differs from {ref[:12]}, "
                                     "the first output of these sources and mask seed")
    store.write_text(json.dumps(known, indent=1, sort_keys=True))


def end_to_end(jobs: list[dict]) -> tuple[dict, dict]:
    good = [j for j in jobs if not j["problems"]]
    iters = [x for j in good for x in j["iter_ms"]]
    tail_ms, tail_pct = tail(iters)
    med = lambda key: statistics.median(j[key] for j in good)  # noqa: E731
    values = {
        "recon_s": med("recon_s"),
        "iter_ms_p50": statistics.median(iters),
        "iter_ms_tail": tail_ms,
        "setup_s": med("setup_s"),
        "total_s": med("total_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "psnr_db": med("psnr_db"),
        "ssim": med("ssim"),
    }
    extra = {"iter_ms_tail_percentile": tail_pct, "iter_samples": len(iters)}
    return values, extra


def run_workload(root: Path, spec: dict, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    w = WORKLOADS[name]
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work = root / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    deadline = time.perf_counter() + DEADLINE_FACTOR * seconds
    n = 1 if trace else max(1, round(w.jobs * seconds / spec["run_seconds"]))
    seeds = [mask_seed(seed, i) for i in range(n)]
    try:
        write_inputs(w, seeds, work)
        if trace:
            jobs = [run_job(root, w, seeds[0], work, "untraced", None, deadline),
                    run_job(root, w, seeds[0], work, "traced", out_dir / f"spans-{name}.jsonl",
                            deadline)]
        else:
            jobs = [run_job(root, w, s, work, f"job{i}", None, deadline)
                    for i, s in enumerate(seeds)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    digest = source_digest(root)
    env = dict(next((j["env"] for j in jobs if "env" in j), {}))
    env.update(nproc=len(os.sched_getaffinity(0)), cpu=cpu_model())
    numeric = ":".join(str(env.get(k)) for k in ("numpy", "scipy", "blas", "blas_version", "cpu"))
    check_hashes(jobs, out_dir / "hashes.json", f"{digest}:{name}:{numeric}")
    failed = sum(bool(j["problems"]) for j in jobs)
    env.update(git_commit=git_commit(root), source_digest=digest, seed=seed, workload=name)
    record = {"env": env, "jobs": jobs, "attempted": len(jobs), "failed": failed}
    if trace:
        traced, untraced = jobs[1], jobs[0]
        layers = dict(traced.get("layers", {}))
        if "recon_s" in traced and "recon_s" in untraced:
            layers["trace.overhead_ratio"] = traced["recon_s"] / untraced["recon_s"]
        # A function or CLI command this workload never calls reads 0.
        values, table = layers, spec["per_layer"]
    else:
        values, extra = end_to_end(jobs) if failed < len(jobs) else ({}, {})
        record.update(extra)
        table = spec["end_to_end"]
    record["metrics"] = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                         for m in table}
    record["correct"] = failed == 0
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return record


def report(name: str, record: dict) -> None:
    env = record["env"]
    print(f"== {name}  seed {env.get('seed')}  jobs {record['attempted']}")
    print("env " + json.dumps(env, sort_keys=True))
    for j in record["jobs"]:
        for p in j.get("problems", []):
            print(f"FAIL {j['run_id']}: {p}")
    for k, m in record["metrics"].items():
        print(f"{k:40s} {m['value']:>16.6g} {m['unit']}")
    if "iter_samples" in record:
        print(f"{'iter_ms_tail percentile':40s} {record['iter_ms_tail_percentile']:>16.4g} %"
              f"  (of {record['iter_samples']} iterations)")
    print(f"{'fail_ratio':40s} {record['failed'] / max(record['attempted'], 1):>16.6g} "
          f"ratio  ({record['failed']}/{record['attempted']})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float,
                    help="run length; default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM unwind normally: subprocess.run kills and reaps the running
    # job, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "hsrecon" / "__init__.py").is_file():
        print(f"error: no hsrecon sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = {n: run_workload(root, spec, n, args.seed, seconds, bool(args.trace))
               for n in names}
    for n, rec in records.items():
        report(n, rec)
    summary = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": records[names[0]]["metrics"] if len(names) == 1 else {
            f"{n}.{k}": v for n, r in records.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
