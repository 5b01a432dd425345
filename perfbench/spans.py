"""Call spans around hsrecon's public functions, and the per-layer numbers.

``instrument`` replaces every public function of the traced modules, in
every hsrecon namespace that holds it (``solver`` looks ``hosvd`` up in
its own namespace, for example), by a wrapper that records one span per
call: name, start, end, parent span and error flag, all in memory. A few
wrappers also feed counters at the same boundary (bytes into HOSVD, core
zeros, rematch changes, file bytes, CLI commands); their cost is kept out
of every span's self time.

A span's self time is its duration minus its children's durations: calls
are nested and single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time

# Modules whose public functions are wrapped, by their hsrecon name.
LAYERS = ("tensors", "patches", "solver", "imaging", "fileio", "metrics", "color", "cli")


class Tracer:
    """Spans of one job, kept as parallel lists indexed by span id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.errors: list[bool] = []
        self.excluded: list[float] = []  # counter-hook time inside the span
        self.stack: list[int] = []
        self.hosvd_bytes = 0
        self.core_zeros = 0
        self.core_coeffs = 0
        self.file_bytes = 0
        self.commands: dict[int, str] = {}
        self.rematch = RematchCounter()

    def call(self, name, fn, hook, args, kwargs):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.errors.append(False)
        self.excluded.append(0.0)
        self.stack.append(sid)
        self.starts.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.errors[sid] = True
            raise
        finally:
            self.ends[sid] = time.perf_counter()
            self.stack.pop()
        if hook is not None:
            t = time.perf_counter()
            hook(self, sid, args, kwargs, result)
            if self.stack:
                self.excluded[self.stack[-1]] += time.perf_counter() - t
        return result

    def root_of(self, sid: int) -> int:
        while self.parents[sid] != -1:
            sid = self.parents[sid]
        return sid

    def write(self, path) -> None:
        """Write the spans as JSON lines: a header, then one array per span."""
        with open(path, "w") as out:
            out.write(json.dumps({"run_id": self.run_id, "fields": [
                "id", "parent", "name", "start", "end", "error"]}) + "\n")
            for sid, name in enumerate(self.names):
                out.write(json.dumps([sid, self.parents[sid], name, self.starts[sid],
                                      self.ends[sid], self.errors[sid]]) + "\n")


class RematchCounter:
    """Groups whose member list changed when their anchor was matched again."""

    def __init__(self):
        self.last: dict = {}
        self.rematched = 0
        self.changed = 0

    def observe(self, root: int, anchor, members) -> None:
        key = (root, tuple(anchor))
        members = tuple(tuple(m) for m in members)
        if key in self.last:
            self.rematched += 1
            self.changed += members != self.last[key]
        self.last[key] = members

    @property
    def ratio(self) -> float:
        return self.changed / self.rematched if self.rematched else 0.0


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _hosvd_hook(tr, sid, args, kwargs, result):
    tr.hosvd_bytes += 8 * math.prod(_arg(args, kwargs, 0, "t").shape)  # float64 in


def _shrink_hook(tr, sid, args, kwargs, result):
    tr.core_coeffs += result.size
    tr.core_zeros += int((result == 0).sum())


def _match_hook(tr, sid, args, kwargs, result):
    tr.rematch.observe(tr.root_of(sid), _arg(args, kwargs, 1, "anchor"), result)


def _file_hook(index: int):
    def hook(tr, sid, args, kwargs, result):
        tr.file_bytes += os.path.getsize(_arg(args, kwargs, index, "path"))
    return hook


def _cli_hook(tr, sid, args, kwargs, result):
    argv = _arg(args, kwargs, 0, "argv")
    if argv:
        tr.commands[sid] = argv[0]


HOOKS = {
    "tensors.hosvd": _hosvd_hook,
    "solver.shrink_core": _shrink_hook,
    "patches.match_blocks": _match_hook,
    "fileio.read_cube": _file_hook(0),
    "fileio.read_plane": _file_hook(0),
    "fileio.write_cube": _file_hook(1),
    "fileio.write_plane": _file_hook(1),
    "cli.cli": _cli_hook,
}


def wrap(tracer: Tracer, name: str, fn):
    """A function that calls ``fn`` inside a span and returns its result."""
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, hook, args, kwargs)

    return wrapper


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every traced layer, wherever they are bound."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"hsrecon.{layer}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = wrap(tracer, f"{layer}.{attr}", obj)
    for modname, mod in list(sys.modules.items()):
        if modname == "hsrecon" or modname.startswith("hsrecon."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])


def self_times(parents, starts, ends, excluded) -> list[float]:
    """Each span's duration minus its children's durations and hook time."""
    out = [e - s - x for s, e, x in zip(starts, ends, excluded)]
    for sid, parent in enumerate(parents):
        if parent != -1:
            out[parent] -= ends[sid] - starts[sid]
    return out


def cg_iters(names, parents) -> list[int]:
    """Normal-operator calls made directly by each cg_solve_image span."""
    per_solve = {sid: 0 for sid, n in enumerate(names) if n == "solver.cg_solve_image"}
    for sid, n in enumerate(names):
        if n == "imaging.apply_normal_operator" and parents[sid] in per_solve:
            per_solve[parents[sid]] += 1
    return list(per_solve.values())


def _inside(sid: int, roots: set, parents) -> bool:
    sid = parents[sid]
    while sid != -1:
        if sid in roots:
            return True
        sid = parents[sid]
    return False


def summarize(tr: Tracer) -> dict:
    """Per-layer metric values (name -> number) from one job's spans.

    ``<fn>.calls`` and ``<fn>.self_s`` appear for each wrapped function
    that was called, and ``cli.<command>.s`` for each CLI command run; a
    function or command that never ran has no entry.
    """
    selfs = self_times(tr.parents, tr.starts, tr.ends, tr.excluded)
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out.update({f"{layer}.errors": 0 for layer in LAYERS})
    for sid, name in enumerate(tr.names):
        layer = name.split(".", 1)[0]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + selfs[sid]
        out[f"{layer}.self_s"] += selfs[sid]
        out[f"{layer}.errors"] += tr.errors[sid]
    for sid, cmd in tr.commands.items():
        key = f"cli.{cmd}.s"
        out[key] = out.get(key, 0.0) + tr.ends[sid] - tr.starts[sid]
    iters = cg_iters(tr.names, tr.parents)
    recon = {sid for sid, n in enumerate(tr.names) if n == "solver.reconstruct"}
    recon_s = sum(tr.ends[sid] - tr.starts[sid] for sid in recon)
    covered = sum(s for sid, s in enumerate(selfs) if _inside(sid, recon, tr.parents))
    out.update({
        "tensors.hosvd.mb_computed": tr.hosvd_bytes / 2**20,
        "patches.rematch_changed_ratio": tr.rematch.ratio,
        "solver.cg_iters.total": sum(iters),
        "solver.cg_iters.max": max(iters, default=0),
        "solver.core_zero_frac": tr.core_zeros / tr.core_coeffs if tr.core_coeffs else 0.0,
        "fileio.bytes": tr.file_bytes,
        "trace.coverage": covered / recon_s if recon_s else 0.0,
        "trace.spans": len(tr.names),
    })
    return out
