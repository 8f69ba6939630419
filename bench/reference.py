"""A fixed reference computation that tells how fast the machine runs right now.

On a shared host a core's speed drifts: on the 2-core x86 machine the
benchmark was written on, the same voronoi-k2 job took from 0.55 to 1.25 times
its usual time, in stretches of seconds to minutes, while no other
process of ours ran.  Raw job times of two runs of the same code then differ
by more than any useful regression bound.

The benchmark therefore runs this kernel between jobs and scales every time
it reports to a machine on which one sample takes `REFERENCE_S` seconds:
scaled = raw * REFERENCE_S / sample.  The kernel never calls the library, so
a change to the library moves the scaled times as it moves the raw ones,
while a slower or faster machine moves both the job and the kernel.  Its mix
follows the library's profile: Python loops over small numpy blocks (the
local operators and quadrature) and a SuperLU factorization with its
triangular solves (the direct solve).  Qhull is left out: a Voronoi diagram
of a fixed point set varied by a factor of three from call to call, far more
than the loops or SuperLU do, and would make the samples noisier than the
jobs they scale.  The kernel binds SuperLU at import, so the traced run's
wrappers, which are installed later, never see its calls.
"""

import statistics
import time

import numpy as np
from scipy.sparse import diags, identity, kron
from scipy.sparse.linalg import splu

# Seconds of one kernel call on the 2-core x86 machine at its usual speed, so
# scaled times read close to raw ones there.
REFERENCE_S = 0.042
# Kernel calls in a sample at least; the sample is their median, so one
# interrupted call does not count.
MIN_CALLS = 5
# A sample after a job lasts about this share of the job, so the samples
# around a long job average over a longer stretch, as the job itself does.
SHARE_OF_JOB = 0.07

_rng = np.random.default_rng(0)
_BLOCKS = [b @ b.T + 24 * np.eye(24) for b in _rng.random((40, 24, 24))]
_RHS = _rng.random(24)
_SECOND_DIFFERENCE = diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(64, 64))
_LAPLACIAN = (kron(identity(64), _SECOND_DIFFERENCE)
              + kron(_SECOND_DIFFERENCE, identity(64))).tocsc()
_LOAD = np.ones(64 * 64)


def kernel() -> float:
    """One call of the fixed computation; returns a checksum."""
    acc = 0.0
    for _ in range(15):
        for block in _BLOCKS:
            x = np.linalg.solve(block, _RHS)
            acc += float(np.einsum("i,ij,j->", x, block, x))
            acc += sum({i: i * 0.5 for i in range(24)}.values())
    lu = splu(_LAPLACIAN)
    for _ in range(4):
        acc += float(lu.solve(_LOAD).sum())
    return acc


def calls_after(job_s: float) -> int:
    """Kernel calls for the sample that follows a job of `job_s` seconds."""
    return max(MIN_CALLS, round(SHARE_OF_JOB * job_s / REFERENCE_S))


def sample(calls: int = MIN_CALLS) -> float:
    """Seconds of one kernel call now: the median of `calls` calls."""
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(raw_s: float, sample_s: float) -> float:
    """A raw time taken when a sample took `sample_s`, at reference speed."""
    return raw_s * REFERENCE_S / sample_s
