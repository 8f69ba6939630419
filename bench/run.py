#!/usr/bin/env python3
"""The solver benchmark: one workload per process, untraced or traced.

Run from the repository root:

    python3 bench/run.py --workload voronoi-k2 --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 32

`--trace 0` measures the end-to-end metrics and `--trace 1` the per-layer
metrics (see tracing.py); the last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`, whose names and
units come from BENCHMARK.json.  Times are scaled to a reference machine
speed measured between jobs (see reference.py).  `--workload all` runs every
workload in its own process, untraced and then traced, and prints one table
with the tracing overhead.  Each run also writes a record of its environment
and of every job to .bench_out/, and a traced run writes its spans there too.
The library is imported from src/ of the same checkout and nowhere else.

See README.md in this directory for the workloads, the metrics and what is
deliberately left unmeasured.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import tracing

reference = None    # reference.py, imported once BLAS is pinned to one thread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 1
# Never run while a change is being written; a claimed gain must also hold here.
HELD_OUT_SEED = 7
# setup_s is the median of the run's own set-up and this many fresh processes.
SETUP_PROBES = 3


@dataclass
class Outcome:
    """One timed job: wall and CPU time, the mean of the reference samples
    taken just before and just after it, output (None if it raised) and the
    reason it failed (None if it passed)."""
    job: object
    wall_s: float
    cpu_s: float
    ref_s: float
    output: object
    failure: str = None

    @property
    def scaled_s(self):
        """Wall time at reference machine speed (see reference.py)."""
        return reference.scale(self.wall_s, self.ref_s)


def single_thread_blas():
    """Run BLAS on one thread; must happen before numpy is imported.

    One thread is at or below any core count, and on a 2-core x86 machine it
    was faster: 2.95 s against 3.45 s per voronoi-k2 job, because the dense
    blocks are small and a second thread only spin-waits.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def blas_threads():
    """The thread count numpy's OpenBLAS reports, or the requested count."""
    import numpy
    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                           "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def git_commit() -> str:
    """The commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(name, seed, scratch):
    """Import the library, make the job list and run one tiny warm-up job.

    Returns (seconds taken, reference sample taken right after, workload, job
    list).  The warm-up's checks are ignored (a tiny mesh misses the error
    ceilings); an exception is not.
    """
    global reference
    start = time.perf_counter()
    import workloads   # imports numpy, scipy and hhobiharm
    wl = workloads.WORKLOADS[name]
    jobs = wl.jobs(seed)
    wl.run(wl.warm_up_job(), scratch)
    setup_s = time.perf_counter() - start
    import reference as ref_module
    reference = ref_module
    return setup_s, reference.sample(), wl, jobs


def probe_setup(name, seed) -> tuple:
    """(set-up seconds, reference sample) measured in a fresh interpreter,
    so the import is cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          check=True)
    raw, sample = done.stdout.split()[-2:]
    return float(raw), float(sample)


def measure(wl, jobs, seconds, scratch, tracer=None):
    """Closed loop: run jobs one after another until the next one would end
    after `seconds`.  A reference sample is taken before the first job and
    after every job.  A job that raises or fails a check is recorded and the
    loop goes on."""
    outcomes = []
    start = time.perf_counter()
    before = reference.sample()
    for job in jobs:
        if tracer is not None:
            tracer.job = len(outcomes)
        t0, c0 = time.perf_counter(), time.process_time()
        output = failure = None
        try:
            output = wl.run(job, scratch)
            failure = "; ".join(output.failures) or None
        except Exception as err:   # a failing job is counted, not fatal
            traceback.print_exc()
            failure = f"{type(err).__name__}: {err}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tracer is not None:
            tracer.job = -1
        after = reference.sample(reference.calls_after(wall))
        outcomes.append(Outcome(job, wall, cpu, (before + after) / 2, output,
                                failure))
        before = after
        elapsed = time.perf_counter() - start
        next_s = statistics.median(o.wall_s for o in outcomes) + after
        if elapsed + next_s > seconds:
            break
    return outcomes


def end_to_end(wl, outcomes, setup_s):
    """The end-to-end metrics; every time is at reference machine speed."""
    walls = [o.scaled_s for o in outcomes]
    outputs = [o.output for o in outcomes[:wl.error_jobs] if o.output is not None]
    failed = sum(o.failure is not None for o in outcomes)
    if wl.solves:
        h2 = max((o.err_h2 for o in outputs), default=None)
        l2 = max((o.err_l2 for o in outputs), default=None)
    else:
        # Nothing is solved: report the relative error of the zero field, a
        # constant, so every workload carries every metric.
        h2 = l2 = 1.0
    return {
        "job_p50_s": statistics.median(walls),
        "cells_per_s": statistics.median(o.job.cells / o.scaled_s for o in outcomes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passed_frac": 1.0 - failed / len(outcomes),
        "err_h2_rel_max": h2,
        "err_l2_rel_max": l2,
    }


def result(spec_metrics, values, outcomes) -> dict:
    failed = sum(o.failure is not None for o in outcomes)
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in spec_metrics}}


def fmt(value) -> str:
    return "absent" if value is None else format(value, ".6g")


def metric_lines(res) -> list:
    lines = [f"{name:<40}{fmt(m['value']):>14}  {m['unit']}"
             for name, m in res["metrics"].items()]
    lines.append(f"{'failed_frac':<40}{res['failed'] / res['attempted']:>14.6g}  ratio"
                 f"  ({res['failed']} of {res['attempted']} jobs)")
    return lines


def run_one(args, spec) -> int:
    single_thread_blas()
    nproc = len(os.sched_getaffinity(0))
    if not (SRC / "hhobiharm").is_dir():
        print(f"bench: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        scratch = Path(tmp)
        try:
            setup_s, setup_ref, wl, jobs = setup(args.workload, args.seed, scratch)
        except ImportError as err:
            print(f"bench: cannot import the library: {err}", file=sys.stderr)
            return 2
        import hhobiharm
        if SRC not in Path(hhobiharm.__file__).resolve().parents:
            print(f"bench: hhobiharm was imported from {hhobiharm.__file__}, "
                  f"not from {SRC}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(repr(setup_s), repr(setup_ref))
            return 0

        tracer = None
        setup_samples = [(setup_s, setup_ref)]
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        else:
            setup_samples += [probe_setup(args.workload, args.seed)
                              for _ in range(SETUP_PROBES)]
        try:
            outcomes = measure(wl, jobs, args.seconds, scratch, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        values = end_to_end(wl, outcomes, statistics.median(
            reference.scale(raw, sample) for raw, sample in setup_samples))
        res = result(spec["end_to_end"], values, outcomes)
    else:
        values = tracing.layer_metrics(tracer, outcomes)
        res = result(spec["per_layer"], values, outcomes)
        tracer.write(OUT_DIR / f"spans-{tag}.jsonl.gz")

    import numpy
    import scipy
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "jobs": len(outcomes), "nproc": nproc,
        "blas_threads": blas_threads(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "commit": git_commit(), "reference_s": reference.REFERENCE_S,
        "setup_samples_s": [{"raw_s": raw, "reference_sample_s": sample}
                            for raw, sample in setup_samples],
        "missing_spans": tracer.missing if tracer else [],
        "result": res,
        "outcomes": [{**asdict(o), "scaled_s": o.scaled_s} for o in outcomes],
    }
    (OUT_DIR / f"record-{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(outcomes)}  nproc {nproc}  blas threads "
          f"{record['blas_threads']}  commit {record['commit'][:12]}")
    for o in outcomes:
        if o.failure:
            print(f"job {o.job.index} {o.job.mesh} {o.job.variant} {o.job.bc} "
                  f"FAILED: {o.failure}")
    if tracer is not None:
        print("\n".join(tracing.self_time_table(tracer, [o.wall_s for o in outcomes])))
    print("\n".join(metric_lines(res)))
    print(f"{'raw job p50 (not scaled)':<40}"
          f"{statistics.median(o.wall_s for o in outcomes):>14.6g}  s")
    print(f"{'reference sample p50':<40}"
          f"{statistics.median(o.ref_s for o in outcomes):>14.6g}  s"
          f"  (scaled to {reference.REFERENCE_S} s)")
    print(json.dumps(res))
    return 0


def run_all(args, spec) -> int:
    """Every workload in its own process, untraced then traced; one table."""
    names = [w["name"] for w in spec["workloads"]]
    results = {}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            print(done.stdout, end="")
            if done.returncode != 0:
                print(done.stderr, end="", file=sys.stderr)
                return done.returncode
            results[name, trace] = json.loads(done.stdout.splitlines()[-1])
            print()
    print(f"{'metric':<36}{'unit':<9}" + "".join(f"{n:>15}" for n in names))
    rows = [(m["name"], m["unit"], lambda r, n=m["name"]: r["metrics"][n]["value"])
            for m in spec["end_to_end"]]
    rows.append(("failed_frac", "ratio", lambda r: r["failed"] / r["attempted"]))
    for label, unit, get in rows:
        print(f"{label:<36}{unit:<9}"
              + "".join(f"{fmt(get(results[n, 0])):>15}" for n in names))
    overhead = [results[n, 1]["metrics"]["trace.job_p50_s"]["value"]
                - results[n, 0]["metrics"]["job_p50_s"]["value"] for n in names]
    print(f"{'tracing overhead (job_p50_s)':<36}{'s':<9}"
          + "".join(f"{v:>15.4f}" for v in overhead))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; {HELD_OUT_SEED} is held out")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
