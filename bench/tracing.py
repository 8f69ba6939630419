"""Span tracing for the benchmark's traced run.

The traced run wraps the public entry points of each library module, and a
few foreign calls the library makes (Qhull, SuperLU), in every namespace that
looks the name up: the library imports functions by name, so
`hhobiharm.assembly.cell_rule` has to be wrapped as well as
`hhobiharm.quadrature.cell_rule`.  Wrappers exist only between `install()`
and `uninstall()`; the untraced run never creates them.

A span is (name, start, end, parent, job).  The part of a span's name before
the first dot is its layer, which is the library module.  A span's self time
is its duration minus the durations of its child spans; calls are sequential,
so the children never overlap.  Spans stay in memory and are written out once,
when the run ends.
"""

import functools
import gzip
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("mesh", "quadrature", "polyspace", "localops", "assembly", "solving")

# span name -> (module that owns the name, attribute path in that module)
TARGETS = {
    "mesh.build_voronoi_mesh": ("hhobiharm.mesh", "build_voronoi_mesh"),
    "mesh.build_rect_mesh": ("hhobiharm.mesh", "build_rect_mesh"),
    "mesh.from_cell_loops": ("hhobiharm.mesh", "Mesh.from_cell_loops"),
    "mesh.qhull": ("hhobiharm.mesh", "Voronoi"),
    "mesh.validate": ("hhobiharm.mesh", "validate"),
    "mesh.save_mesh": ("hhobiharm.mesh", "save_mesh"),
    "mesh.load_mesh": ("hhobiharm.mesh", "load_mesh"),
    "quadrature.cell_rule": ("hhobiharm.quadrature", "cell_rule"),
    "quadrature.face_rule": ("hhobiharm.quadrature", "face_rule"),
    "polyspace.canonical_interp_matrix": ("hhobiharm.polyspace",
                                          "canonical_interp_matrix"),
    "polyspace.basis_tables": ("hhobiharm.polyspace", "CellBasis.tables"),
    "localops.build_local_matrices": ("hhobiharm.localops", "build_local_matrices"),
    "assembly.assemble": ("hhobiharm.assembly", "assemble"),
    "assembly.recover_cells": ("hhobiharm.assembly", "recover_cells"),
    "solving.solve": ("hhobiharm.solving", "solve"),
    "solving.splu": ("scipy.sparse.linalg", "splu"),
    "solving.reconstruct_field": ("hhobiharm.solving", "reconstruct_field"),
    "solving.error_norms": ("hhobiharm.solving", "error_norms"),
}
# Created by the wrapped factorization object, so it exists exactly when splu does.
TRIANGULAR_SOLVE = "solving.triangular_solve"


class Tracer:
    def __init__(self):
        self.spans = []              # (name, start, end, parent index, job)
        self.facts = defaultdict(int)     # (job, key) -> count
        self.job = -1
        self.missing = []            # targets that no longer exist
        self._stack = []
        self._patches = []
        self._t0 = time.perf_counter()

    # -- recording ------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            return after(args, result) if after else result
        return wrapper

    def _after_qhull(self, args, result):
        self.facts[(self.job, "qhull_points")] += len(args[0])
        return result

    def _after_splu(self, args, lu):
        self.facts[(self.job, "factor_nnz")] += lu.nnz
        self.facts[(self.job, "matrix_nnz")] += args[0].nnz
        return _TracedLU(lu, self.wrap(TRIANGULAR_SOLVE, lu.solve))

    # -- installing -----------------------------------------------------------

    def install(self):
        hooks = {"mesh.qhull": self._after_qhull, "solving.splu": self._after_splu}
        for name, (module, path) in TARGETS.items():
            try:
                self._patch(name, importlib.import_module(module), path,
                            hooks.get(name))
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
        if "solving.splu" in self.missing:
            self.missing.append(TRIANGULAR_SOLVE)

    def _patch(self, name, owner, path, after):
        if "." in path:              # a method or staticmethod of a class
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(name, raw.__func__, after))
            else:
                new = self.wrap(name, raw, after)
            self._set(cls, attr, new)
            return
        orig = getattr(owner, path)
        wrapped = self.wrap(name, orig, after)
        self._set(owner, path, wrapped)
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or not mod_name.startswith("hhobiharm"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapped)

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def uninstall(self):
        while self._patches:
            obj, attr, old = self._patches.pop()
            setattr(obj, attr, old)

    # -- output ---------------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON line, times relative to tracer creation."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start - self._t0,
                                     "end": end - self._t0, "parent": parent,
                                     "job": job}) + "\n")

    def per_job(self, n_jobs):
        """Per job: total and self seconds and call count per span name, and
        top-level seconds and self seconds per layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = [defaultdict(float) for _ in range(n_jobs)]
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            if not 0 <= job < n_jobs:
                continue
            acc, dur = out[job], end - start
            acc[("total", name)] += dur
            acc[("self", name)] += dur - child[i]
            acc[("calls", name)] += 1
            acc[("layer", name.split(".")[0])] += dur - child[i]
            if parent < 0:
                acc["top_level"] += dur
        return out


class _TracedLU:
    """SuperLU factorization whose solve() is traced; everything else passes through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def layer_metrics(tracer, outcomes):
    """Per-layer metrics of a traced run; None where every wrapped name it
    needs no longer exists in the library.

    Times are per-job medians over the run's jobs: total span time, except
    self time for `build_local_matrices` and for `assemble` (whose self time
    is the load, Schur elimination and CSR build).  Counts and ratios describe the first
    job, so they repeat exactly for a seed; `solving.residual_rel` is the
    largest over the run.
    """
    jobs = tracer.per_job(len(outcomes))
    first = jobs[0]
    out0 = outcomes[0].output
    missing = set(tracer.missing)

    def gone(names):
        return all(n in missing for n in names)

    def med(kind, *names):
        if gone(names):
            return None
        return statistics.median(sum(j[(kind, n)] for n in names) for j in jobs)

    def calls(name):
        return None if gone([name]) else int(first[("calls", name)])

    def per(num, den):
        return None if num is None else (num / den if den else 0.0)

    def fact(key, name):
        return None if gone([name]) else tracer.facts[(0, key)]

    walls = [o.wall_s for o in outcomes]
    residuals = [o.output.residual for o in outcomes
                 if o.output and o.output.residual is not None]
    return {
        "mesh.build_s": med("total", "mesh.build_voronoi_mesh", "mesh.build_rect_mesh"),
        "mesh.from_loops_s": med("total", "mesh.from_cell_loops"),
        "mesh.qhull_calls": calls("mesh.qhull"),
        "mesh.qhull_points": fact("qhull_points", "mesh.qhull"),
        "mesh.qhull_s": med("total", "mesh.qhull"),
        "mesh.validate_s": med("total", "mesh.validate"),
        "mesh.save_s": med("total", "mesh.save_mesh"),
        "mesh.load_s": med("total", "mesh.load_mesh"),
        "mesh.json_bytes": out0.json_bytes if out0 else None,
        "quadrature.cell_rule_calls": calls("quadrature.cell_rule"),
        "quadrature.face_rule_calls": calls("quadrature.face_rule"),
        "quadrature.face_rule_calls_per_face": per(calls("quadrature.face_rule"),
                                                   out0.faces if out0 else 0),
        "quadrature.cell_rule_s": med("total", "quadrature.cell_rule"),
        "quadrature.face_rule_s": med("total", "quadrature.face_rule"),
        "polyspace.canonical_interp_calls": calls("polyspace.canonical_interp_matrix"),
        "polyspace.canonical_interp_s": med("total", "polyspace.canonical_interp_matrix"),
        "polyspace.basis_tables_s": med("total", "polyspace.basis_tables"),
        "localops.local_matrices_s": med("self", "localops.build_local_matrices"),
        "localops.local_matrices_calls_per_cell": per(
            calls("localops.build_local_matrices"), outcomes[0].job.cells),
        "assembly.assemble_s": med("total", "assembly.assemble"),
        "assembly.condense_scatter_s": med("self", "assembly.assemble"),
        "assembly.dofs": out0.dofs if out0 else None,
        "assembly.nnz": out0.nnz if out0 else None,
        "assembly.recover_s": med("total", "assembly.recover_cells"),
        "solving.reconstruct_s": med("total", "solving.reconstruct_field"),
        "solving.error_norms_s": med("total", "solving.error_norms"),
        "solving.solve_s": med("total", "solving.solve"),
        "solving.factor_s": med("total", "solving.splu"),
        "solving.factor_fill": per(fact("factor_nnz", "solving.splu"),
                                   fact("matrix_nnz", "solving.splu")),
        "solving.triangular_solves": calls(TRIANGULAR_SOLVE),
        "solving.residual_rel": max(residuals, default=0.0),
        "trace.job_p50_s": statistics.median(o.scaled_s for o in outcomes),
        "trace.top_span_coverage": sum(j["top_level"] for j in jobs) / sum(walls),
    }


def self_time_table(tracer, walls):
    """Lines of the per-layer self-time table: seconds per job and share of wall."""
    jobs = tracer.per_job(len(walls))
    wall = sum(walls) / len(walls)
    lines = [f"{'layer':<24}{'self s/job':>12}{'share':>9}"]
    covered = 0.0
    for layer in LAYERS:
        s = sum(j[("layer", layer)] for j in jobs) / len(jobs)
        covered += s
        lines.append(f"{layer:<24}{s:>12.4f}{s / wall:>9.1%}")
    rest = wall - covered
    lines.append(f"{'outside library spans':<24}{rest:>12.4f}{rest / wall:>9.1%}")
    lines.append(f"{'job wall':<24}{wall:>12.4f}{1:>9.1%}")
    return lines
