"""The benchmark's workloads: job inputs drawn from the seed, one job, its checks.

Every workload is a closed loop with one client: the next job starts only
after the previous one has finished and been checked.  A job goes through the
public library API only, and the library receives nothing but the generated
inputs (mesh sizes, mesh seeds, variant, boundary mode).  README.md in this
directory gives the reason for each workload.
"""

import random
from dataclasses import dataclass

import numpy as np

import hhobiharm as hb

# The five legal (variant, bc) pairs; variant C has no Nitsche mode.
PAIRS = (("A", "strong"), ("A", "nitsche"), ("B", "strong"),
         ("B", "nitsche"), ("C", "strong"))
# A run never gets through this many jobs; the list only has to be long enough.
JOB_LIST_LENGTH = 64
CASE = hb.get_case("2")
# The residual contract of the direct solve.
RESIDUAL_CEILING = hb.SolveConfig().direct_residual


@dataclass(frozen=True)
class Job:
    """Inputs of one job: mesh ("voronoi", n_cells, seed) or ("rect", nx, ny)."""
    index: int
    mesh: tuple
    variant: str = ""
    bc: str = ""

    @property
    def cells(self):
        return self.mesh[1] * self.mesh[2] if self.mesh[0] == "rect" else self.mesh[1]


@dataclass
class JobOutput:
    """What one job produced, and the checks it failed (empty when it passed)."""
    faces: int
    failures: list
    dofs: int = 0
    nnz: int = 0
    err_h2: float = None
    err_l2: float = None
    residual: float = None
    json_bytes: int = 0


@dataclass(frozen=True)
class Workload:
    """One workload.  `size` is the Voronoi cell count, or the rectangle centre."""
    name: str
    mesh_kind: str
    size: int
    k: int = None                  # None: a mesh-only workload
    h2_ceiling: float = None       # error ceilings, well above the measured values
    l2_ceiling: float = None
    warm_size: int = 2
    # The error metrics cover the run's first `error_jobs` jobs, so a faster
    # run, which gets through more jobs, does not report larger errors.
    error_jobs: int = None

    @property
    def solves(self):
        return self.k is not None

    def jobs(self, seed: int) -> list:
        """The job list of a run, a pure function of the seed."""
        rng = random.Random(seed)
        if self.mesh_kind == "rect":
            # Pass p is (c+d) x (c-d), c = size + p, d in {-2, -1, 1, 2} in
            # seed order.  No two jobs share a mesh.  Case "2" is symmetric in
            # x and y, so a mesh and its transpose have the same errors: any
            # three jobs of the first pass hold the run's largest errors, and
            # later passes are finer, so the error metrics do not depend on
            # the draw.
            jobs = []
            for p in range(JOB_LIST_LENGTH // 4):
                band = [-2, -1, 1, 2]
                rng.shuffle(band)
                c = self.size + p
                jobs += [Job(len(jobs) + i, ("rect", c + d, c - d), "A", "strong")
                         for i, d in enumerate(band)]
            return jobs
        first = rng.randrange(len(PAIRS))
        out = []
        for i in range(JOB_LIST_LENGTH):
            variant, bc = PAIRS[(first + i) % len(PAIRS)] if self.solves else ("", "")
            out.append(Job(i, ("voronoi", self.size, rng.randrange(2 ** 31)),
                           variant, bc))
        return out

    def warm_up_job(self) -> Job:
        """A tiny job of the same kind and degree; fills the rule caches."""
        if self.mesh_kind == "rect":
            return Job(-1, ("rect", self.warm_size, self.warm_size), "A", "strong")
        return Job(-1, ("voronoi", self.warm_size, 0), *(PAIRS[0] if self.solves else ()))

    def run(self, job: Job, scratch) -> JobOutput:
        """Run one job and check its outputs.  Exceptions propagate."""
        return _solve_job(self, job) if self.solves else _mesh_job(job, scratch)


def _build_mesh(job):
    if job.mesh[0] == "rect":
        return hb.build_rect_mesh(job.mesh[1], job.mesh[2])
    return hb.build_voronoi_mesh(job.mesh[1], seed=job.mesh[2])


def _solve_job(wl, job):
    mesh = _build_mesh(job)
    system = hb.assemble(mesh, variant=job.variant, k=wl.k, bc_mode=job.bc,
                         f=CASE.f, bdata=hb.BoundaryData.from_case(CASE))
    x = hb.solve(system)
    solution = hb.recover_cells(system, x)
    field = hb.reconstruct_field(system, solution)
    report = hb.error_norms(mesh, field, CASE, wl.k, dofs=system.n_dofs)
    residual = float(np.linalg.norm(system.matrix @ x - system.rhs)
                      / np.linalg.norm(system.rhs))
    out = JobOutput(faces=mesh.n_faces, failures=[], dofs=system.n_dofs,
                    nnz=system.matrix.nnz, err_h2=report.err_h2_rel,
                    err_l2=report.err_l2_rel, residual=residual)
    if not residual <= RESIDUAL_CEILING:
        out.failures.append(f"residual {residual:.3e} > {RESIDUAL_CEILING:.0e}")
    if not report.err_h2_rel <= wl.h2_ceiling:
        out.failures.append(f"H2 error {report.err_h2_rel:.3e} > {wl.h2_ceiling:.0e}")
    if not report.err_l2_rel <= wl.l2_ceiling:
        out.failures.append(f"L2 error {report.err_l2_rel:.3e} > {wl.l2_ceiling:.0e}")
    return out


def _mesh_job(job, scratch):
    mesh = _build_mesh(job)
    report = hb.validate(mesh)
    path = scratch / f"mesh-{job.index}.json"
    hb.save_mesh(mesh, path)
    json_bytes = path.stat().st_size
    loaded = hb.load_mesh(path)
    path.unlink()
    out = JobOutput(faces=mesh.n_faces, failures=[], json_bytes=json_bytes)
    if not report.ok:
        out.failures.append(f"validate: {report}")
    if mesh.n_cells != job.mesh[1]:
        out.failures.append(f"{mesh.n_cells} cells, {job.mesh[1]} requested")
    if loaded != mesh:
        out.failures.append("load_mesh(save_mesh(m)) != m")
    return out


WORKLOADS = {wl.name: wl for wl in (
    # Measured on the default and held-out seeds: H2 1.2-1.5e-3, L2 2e-5-9e-5.
    # The error metrics cover one job of each (variant, bc) pair.
    Workload("voronoi-k2", "voronoi", 256, k=2, h2_ceiling=4e-3,
             l2_ceiling=4e-4, warm_size=16, error_jobs=len(PAIRS)),
    # Measured: H2 4.3-5.0e-6, L2 0.9-1.2e-9.  Any three of the first four
    # jobs hold the largest errors of the first pass (see jobs()).
    Workload("rect-k3", "rect", 30, k=3, h2_ceiling=2e-5, l2_ceiling=5e-9,
             error_jobs=3),
    Workload("voronoi-mesh", "voronoi", 2048, warm_size=16),
)}
