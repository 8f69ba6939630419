#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Run from the repository root:  python3 bench/selftest.py

Checks that every metric of BENCHMARK.json is printed with its unit in both
modes, that a job made to fail a check or to raise is counted in `failed`
without stopping the run, that job lists are a pure function of the seed,
and that tracing survives a wrapped name that no longer exists.
"""

import dataclasses
import json
import sys
import tempfile
import unittest
from pathlib import Path

import run

run.single_thread_blas()
sys.path.insert(0, str(run.SRC))

import hhobiharm as hb  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

run.reference = reference

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# Tiny sizes; the error ceilings are opened because coarse meshes miss them.
TINY = {
    "voronoi-k2": dict(size=12, warm_size=6, h2_ceiling=1.0, l2_ceiling=1.0),
    "rect-k3": dict(size=3, h2_ceiling=1.0, l2_ceiling=1.0),
    "voronoi-mesh": dict(size=40, warm_size=6),
}


def tiny_run(name, trace=False, seconds=0.5, **changes):
    """One tiny run through the benchmark's own loop and result builders."""
    wl = dataclasses.replace(workloads.WORKLOADS[name], **{**TINY[name], **changes})
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        scratch = Path(tmp)
        wl.run(wl.warm_up_job(), scratch)
        tracer = tracing.Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        try:
            outcomes = run.measure(wl, wl.jobs(1), seconds, scratch, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    if trace:
        return run.result(SPEC["per_layer"], tracing.layer_metrics(tracer, outcomes),
                          outcomes)
    return run.result(SPEC["end_to_end"], run.end_to_end(wl, outcomes, 0.5), outcomes)


class PrintedMetrics(unittest.TestCase):
    def check_printed(self, res, spec_metrics):
        lines = run.metric_lines(res)
        printed = {(line.split()[0], line.split()[2]) for line in lines}
        for m in spec_metrics:
            self.assertIn((m["name"], m["unit"]), printed)
        self.assertTrue(any(line.startswith("failed_frac") for line in lines))
        back = json.loads(json.dumps(res))
        self.assertEqual(set(back), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual([(n, v["unit"]) for n, v in back["metrics"].items()],
                         [(m["name"], m["unit"]) for m in spec_metrics])

    def test_end_to_end_metrics_printed(self):
        for name in TINY:
            with self.subTest(workload=name):
                res = tiny_run(name)
                self.check_printed(res, SPEC["end_to_end"])
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                for metric in res["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_per_layer_metrics_printed(self):
        for name in TINY:
            with self.subTest(workload=name):
                res = tiny_run(name, trace=True)
                self.check_printed(res, SPEC["per_layer"])
                values = {n: m["value"] for n, m in res["metrics"].items()}
                self.assertNotIn(None, values.values())
                self.assertGreater(values["trace.top_span_coverage"], 0.5)
                self.assertLessEqual(values["trace.top_span_coverage"], 1.0)
                if name == "voronoi-mesh":
                    self.assertGreater(values["mesh.json_bytes"], 0)
                else:
                    self.assertEqual(
                        values["localops.local_matrices_calls_per_cell"], 1.0)
                    self.assertGreaterEqual(values["solving.triangular_solves"], 1)


class ReferenceScaling(unittest.TestCase):
    def test_times_are_scaled_by_the_reference_sample(self):
        job = workloads.Job(0, ("rect", 2, 2), "A", "strong")
        slow = run.Outcome(job, 3.0, 3.0, 2 * reference.REFERENCE_S, None)
        fast = run.Outcome(job, 1.0, 1.0, reference.REFERENCE_S / 2, None)
        self.assertAlmostEqual(slow.scaled_s, 1.5)
        self.assertAlmostEqual(fast.scaled_s, 2.0)
        values = run.end_to_end(workloads.WORKLOADS["voronoi-mesh"], [slow, fast], 0.5)
        self.assertAlmostEqual(values["job_p50_s"], 1.75)
        self.assertAlmostEqual(values["cells_per_s"], (4 / 1.5 + 4 / 2.0) / 2)

    def test_samples_bracket_each_job(self):
        sample, taken = reference.sample, []

        def numbered_sample(calls=reference.MIN_CALLS):
            taken.append(sample(calls))
            return len(taken) / 1000

        wl = dataclasses.replace(workloads.WORKLOADS["voronoi-mesh"],
                                 **TINY["voronoi-mesh"])
        reference.sample = numbered_sample
        try:
            with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
                outcomes = run.measure(wl, wl.jobs(1), 1.0, Path(tmp))
        finally:
            reference.sample = sample
        self.assertGreaterEqual(len(outcomes), 2)
        self.assertEqual(len(taken), len(outcomes) + 1)
        for i, o in enumerate(outcomes):
            self.assertAlmostEqual(o.ref_s, (i + 1.5) / 1000)

    def test_longer_jobs_get_longer_samples(self):
        self.assertEqual(reference.calls_after(0.0), reference.MIN_CALLS)
        long_job = 100 * reference.REFERENCE_S / reference.SHARE_OF_JOB
        self.assertEqual(reference.calls_after(long_job), 100)

    def test_reference_bypasses_tracing(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            reference.sample()
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.spans, [])


class ErrorMetrics(unittest.TestCase):
    def test_errors_cover_a_fixed_job_count(self):
        wl = workloads.WORKLOADS["voronoi-k2"]
        outcomes = [run.Outcome(workloads.Job(i, ("voronoi", 8, i)), 1.0, 1.0,
                                reference.REFERENCE_S,
                                workloads.JobOutput(0, [], err_h2=i, err_l2=-i))
                    for i in range(wl.error_jobs + 3)]
        values = run.end_to_end(wl, outcomes, 0.5)
        self.assertEqual(values["err_h2_rel_max"], wl.error_jobs - 1)
        self.assertEqual(values["err_l2_rel_max"], 0)


class FailedJobs(unittest.TestCase):
    def test_solve_check_failure_counted(self):
        res = tiny_run("rect-k3", h2_ceiling=0.0)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], res["attempted"])
        self.assertEqual(res["metrics"]["passed_frac"]["value"], 0.0)
        line = next(x for x in run.metric_lines(res) if x.startswith("failed_frac"))
        self.assertEqual(float(line.split()[1]), 1.0)

    def test_mesh_roundtrip_failure_counted(self):
        load = hb.load_mesh

        def load_flipped(path):
            mesh = load(path)
            return hb.with_flipped_face(mesh, mesh.interior_faces()[0])

        hb.load_mesh = load_flipped
        try:
            res = tiny_run("voronoi-mesh")
        finally:
            hb.load_mesh = load
        self.assertEqual(res["failed"], res["attempted"])

    def test_raising_job_counted_and_run_continues(self):
        solve = hb.solve
        calls = []

        def solve_once_failing(system, *args, **kwargs):
            calls.append(1)
            if len(calls) == 2:     # the first timed job; call 1 is the warm-up
                raise hb.SolverError("injected failure")
            return solve(system, *args, **kwargs)

        hb.solve = solve_once_failing
        try:
            res = tiny_run("voronoi-k2", seconds=1.0)
        finally:
            hb.solve = solve
        self.assertGreaterEqual(res["attempted"], 2)
        self.assertEqual(res["failed"], 1)


class Tracing(unittest.TestCase):
    def test_missing_name_is_absent(self):
        saved = dict(tracing.TARGETS)
        tracing.TARGETS["polyspace.canonical_interp_matrix"] = (
            "hhobiharm.polyspace", "no_such_function")
        try:
            res = tiny_run("voronoi-k2", trace=True)
        finally:
            tracing.TARGETS.clear()
            tracing.TARGETS.update(saved)
        self.assertIsNone(res["metrics"]["polyspace.canonical_interp_calls"]["value"])
        self.assertIsNone(res["metrics"]["polyspace.canonical_interp_s"]["value"])
        self.assertIsNotNone(res["metrics"]["polyspace.basis_tables_s"]["value"])

    def test_uninstall_restores_library(self):
        before = (hb.assemble, hb.mesh.Voronoi, hb.mesh.Mesh.__dict__["from_cell_loops"],
                  hb.polyspace.CellBasis.tables, hb.localops.cell_rule)
        tracer = tracing.Tracer()
        tracer.install()
        self.assertEqual(tracer.missing, [])
        self.assertIsNot(hb.localops.cell_rule, before[4])
        tracer.uninstall()
        after = (hb.assemble, hb.mesh.Voronoi, hb.mesh.Mesh.__dict__["from_cell_loops"],
                 hb.polyspace.CellBasis.tables, hb.localops.cell_rule)
        for a, b in zip(before, after):
            self.assertIs(a, b)


class JobLists(unittest.TestCase):
    def test_pure_function_of_seed(self):
        for wl in workloads.WORKLOADS.values():
            self.assertEqual(wl.jobs(3), wl.jobs(3))
            self.assertNotEqual(wl.jobs(3), wl.jobs(4))

    def test_solve_workload_inputs(self):
        jobs = workloads.WORKLOADS["voronoi-k2"].jobs(5)
        for i in range(len(jobs) - 4):
            window = {(j.variant, j.bc) for j in jobs[i:i + 5]}
            self.assertEqual(window, set(workloads.PAIRS))
        jobs = workloads.WORKLOADS["rect-k3"].jobs(5)
        self.assertEqual(len({j.mesh for j in jobs}), len(jobs))
        for p in range(len(jobs) // 4):
            shapes = {(nx, ny) for _, nx, ny in (j.mesh for j in jobs[4 * p:4 * p + 4])}
            c = 30 + p
            self.assertEqual(shapes, {(c - 2, c + 2), (c - 1, c + 1),
                                      (c + 1, c - 1), (c + 2, c - 2)})

    def test_workload_names_match_spec(self):
        self.assertEqual(list(workloads.WORKLOADS),
                         [w["name"] for w in SPEC["workloads"]])


if __name__ == "__main__":
    unittest.main()
