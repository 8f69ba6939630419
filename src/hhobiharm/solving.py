"""Solving the condensed system and measuring errors and convergence rates.

Errors are evaluated against the cellwise reconstruction of the discrete
solution: relative broken Hessian seminorm and relative L^2 norm.  In Nitsche
mode the data lifting (computed from the exact boundary data) is added to the
interior reconstruction before comparing with the exact solution.  Per-cell
contributions are accumulated into an array and reduced with numpy's pairwise
summation, so results are reproducible across runs.
"""

import csv
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .common import SolverError
from .assembly import CondensedSystem, HHOSolution, recover_cells
from .mesh import CellShape, class_members, translation_classes
from .polyspace import (FACE_ORDERS_3, CellBasis, PolyCoeffs, face_derivatives,
                        project_cell)
from .quadrature import (DATA_EXTRA_DEGREE, ERROR_EXTRA_DEGREE, cell_degree,
                         cell_rule, face_degree, face_rule)

__all__ = ["SolveConfig", "ErrorReport", "RateTable", "solve",
           "reconstruct_field", "error_norms", "convergence_study",
           "solve_and_measure", "projection_gap_sharp_norm", "CSV_HEADER"]

CSV_HEADER = ["level", "h_max", "dofs", "err_h2_rel", "err_l2_rel",
              "slope_h2", "slope_l2", "assembly_s", "solve_s"]


@dataclass(frozen=True)
class SolveConfig:
    direct_residual: float = 1e-10    # relative residual ||Ax - b|| / ||b||

    def __post_init__(self):
        if not self.direct_residual > 0:
            raise ValueError("direct_residual must be positive, got "
                             f"{self.direct_residual}")


@dataclass
class ErrorReport:
    h_max: float
    dofs: int
    err_h2_rel: float
    err_l2_rel: float
    assembly_time: float = 0.0
    solve_time: float = 0.0

    def __post_init__(self):
        if self.err_h2_rel < 0 or self.err_l2_rel < 0:
            raise ValueError("errors must be nonnegative")


@dataclass
class RateTable:
    """Per-level error reports plus fitted slopes over the finest levels.

    `slope_h2` / `slope_l2` are least-squares slopes of log(err) against
    log(h) over the finest three levels (decay order in h); the slopes
    against log(DoFs^(1/2)) carry the opposite sign convention and are kept
    alongside.
    """
    reports: list = field(default_factory=list)

    def __post_init__(self):
        hs = [r.h_max for r in self.reports]
        if any(a < b for a, b in zip(hs, hs[1:])):
            raise ValueError("levels must be sorted by h descending")

    @staticmethod
    def _fit(xs, ys, count=3):
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        keep = ys > 0
        xs, ys = xs[keep][-count:], ys[keep][-count:]
        if len(xs) < 2:
            return float("nan")
        return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])

    @property
    def slope_h2(self):
        return self._fit([r.h_max for r in self.reports],
                         [r.err_h2_rel for r in self.reports])

    @property
    def slope_l2(self):
        return self._fit([r.h_max for r in self.reports],
                         [r.err_l2_rel for r in self.reports])

    @property
    def slopes_vs_sqrt_dofs(self):
        xs = [np.sqrt(r.dofs) for r in self.reports]
        return (self._fit(xs, [r.err_h2_rel for r in self.reports]),
                self._fit(xs, [r.err_l2_rel for r in self.reports]))

    def rows(self):
        """CSV rows; the slope columns carry the incremental per-level rates."""
        out = []
        prev = None
        for lvl, r in enumerate(self.reports):
            s2 = sl = ""
            if prev is not None and r.err_h2_rel > 0 and prev.err_h2_rel > 0:
                dh = np.log(prev.h_max / r.h_max)
                s2 = f"{np.log(prev.err_h2_rel / r.err_h2_rel) / dh:.6f}"
                if r.err_l2_rel > 0 and prev.err_l2_rel > 0:
                    sl = f"{np.log(prev.err_l2_rel / r.err_l2_rel) / dh:.6f}"
            out.append([lvl, f"{r.h_max:.12e}", r.dofs,
                        f"{r.err_h2_rel:.12e}", f"{r.err_l2_rel:.12e}",
                        s2, sl, f"{r.assembly_time:.3f}", f"{r.solve_time:.3f}"])
            prev = r
        return out

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            writer.writerows(self.rows())


def solve(system: CondensedSystem, config: SolveConfig = SolveConfig()) -> np.ndarray:
    """Solve the condensed SPD system by one certified sparse factorization.

    SuperLU factors A with the symmetric minimum-degree ordering of A^T + A
    and no off-diagonal pivoting.  With a symmetric permutation and diagonal
    pivots, A is SPD exactly when every pivot is positive, so the factors
    certify the system: `SolverError` is raised if the row and column
    permutations differ or a pivot is not positive.  Up to three steps of
    iterative refinement follow.  The result must meet the relative residual
    `config.direct_residual`, or else the roundoff floor 2 eps || |A| |x| ||
    below which float64 cannot certify a residual; otherwise `SolverError`.
    """
    n = system.n_dofs
    if n == 0:
        return np.zeros(0)
    A, b = system.matrix, system.rhs
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n)
    try:
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError as err:
        raise SolverError(f"direct factorization failed: {err}") from err
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError("factorization pivoted off the diagonal (row and "
                          "column permutations differ); system is not SPD")
    pivots = lu.U.diagonal()
    if not np.all(pivots > 0):
        raise SolverError(f"smallest pivot {pivots.min():.3e} is not positive; "
                          "system is not SPD")
    x = lu.solve(b)
    # Iterative refinement keeps the residual at the contract level even for
    # the ill-conditioned high-degree systems.
    for _ in range(3):
        r = b - A @ x
        res = np.linalg.norm(r) / bnorm
        if res <= 0.1 * config.direct_residual:
            break
        x = x + lu.solve(r)
    res = np.linalg.norm(A @ x - b)
    # |A| is a full copy of A, so the floor is built only when the residual
    # misses the contract.  A NaN or inf residual fails both tests.
    if not (res <= config.direct_residual * bnorm and np.isfinite(res)):
        floor = 2.0 * np.finfo(float).eps * np.linalg.norm(abs(A) @ np.abs(x))
        if not (res <= floor and np.isfinite(res)):
            raise SolverError(
                f"direct solve residual {res / bnorm:.3e} exceeds "
                f"{config.direct_residual:.1e} and the roundoff floor "
                f"{floor / bnorm:.3e}")
    return x


def reconstruct_field(system: CondensedSystem, solution) -> list:
    """Cellwise reconstruction R(u) of the discrete solution.

    Accepts the face solution vector or a recovered HHOSolution.  In Nitsche
    mode the stored boundary-data lifting is added on boundary cells.
    """
    if not isinstance(solution, HHOSolution):
        solution = recover_cells(system, solution)
    out = []
    for rec in system.cells:
        coeffs = rec.R @ solution.local_vector(rec.cell_id)
        if system.bc_mode == "nitsche" and rec.lifting is not None:
            coeffs = coeffs + rec.lifting
        out.append(PolyCoeffs(rec.rec_basis, coeffs))
    return out


def error_norms(mesh, fld, case, k, dofs=0,
                assembly_time=0.0, solve_time=0.0) -> ErrorReport:
    """Relative broken-Hessian and L^2 errors of a reconstructed field.

    Works one translation class of cells (see `translation_classes`) at a
    time: the class shares one cell rule, built on its `CellShape`, and the
    basis tables of the fields whose basis sits on that shape carried onto
    the cell, as `assemble` builds them.  Other fields get per-cell tables.
    """
    deg = cell_degree(k) + ERROR_EXTRA_DEGREE
    orders = [(0, 0), (2, 0), (1, 1), (0, 2)]
    e_h2 = np.zeros(mesh.n_cells)
    e_l2 = np.zeros(mesh.n_cells)
    n_h2 = np.zeros(mesh.n_cells)
    n_l2 = np.zeros(mesh.n_cells)
    for members in class_members(translation_classes(mesh)):
        shape = CellShape(mesh, members[0])
        rule = cell_rule(shape, 0, deg)
        h, w = shape.cell_diameter[0], rule.weights
        tables = {}
        for c in members:
            poly = fld[c]
            basis = poly.basis
            offset = shape.offset(mesh, c)
            pts = rule.points + offset
            if basis.scale == h and np.array_equal(basis.center, offset):
                if basis.degree not in tables:
                    tables[basis.degree] = CellBasis(
                        np.zeros(2), h, basis.degree).tables(rule.points, orders)
                tab = tables[basis.degree]
            else:
                tab = basis.tables(pts, orders)
            uex = np.asarray(case.u(pts), dtype=np.float64)
            hex_ = np.asarray(case.hess(pts), dtype=np.float64)
            vals = tab[(0, 0)] @ poly.coeffs
            hxx = tab[(2, 0)] @ poly.coeffs
            hxy = tab[(1, 1)] @ poly.coeffs
            hyy = tab[(0, 2)] @ poly.coeffs
            e_l2[c] = w @ (vals - uex) ** 2
            n_l2[c] = w @ uex ** 2
            e_h2[c] = w @ ((hxx - hex_[:, 0]) ** 2 + 2 * (hxy - hex_[:, 1]) ** 2
                           + (hyy - hex_[:, 2]) ** 2)
            n_h2[c] = w @ (hex_[:, 0] ** 2 + 2 * hex_[:, 1] ** 2
                           + hex_[:, 2] ** 2)
    h2_den = np.sqrt(np.sum(n_h2))
    l2_den = np.sqrt(np.sum(n_l2))
    return ErrorReport(
        h_max=mesh.h_max, dofs=dofs,
        err_h2_rel=float(np.sqrt(np.sum(e_h2)) / (h2_den if h2_den > 0 else 1.0)),
        err_l2_rel=float(np.sqrt(np.sum(e_l2)) / (l2_den if l2_den > 0 else 1.0)),
        assembly_time=assembly_time, solve_time=solve_time)


def projection_gap_sharp_norm(mesh, k, case) -> float:
    """Diagnostic norm of u - P(u), P the cellwise L^2 projection onto P^{k+2}.

    Per cell: Hessian seminorm squared plus h^3 |d_n Lap|^2 + h |d_nn|^2 +
    h |d_nt|^2 integrated over the cell boundary, summed over the mesh.  This
    is the quantity that drives the discretization error of smooth solutions.
    """
    total = np.zeros(mesh.n_cells)
    for c in range(mesh.n_cells):
        b = CellBasis.for_cell(mesh, c, k + 2)
        crule = cell_rule(mesh, c, cell_degree(k) + DATA_EXTRA_DEGREE)
        proj = project_cell(case.u, b, crule).coeffs
        w = crule.weights
        H = np.asarray(case.hess(crule.points), dtype=np.float64)
        dxx = H[:, 0] - b.eval(crule.points, 2, 0) @ proj
        dxy = H[:, 1] - b.eval(crule.points, 1, 1) @ proj
        dyy = H[:, 2] - b.eval(crule.points, 0, 2) @ proj
        acc = w @ (dxx ** 2 + 2 * dxy ** 2 + dyy ** 2)
        h = mesh.cell_diameter[c]
        for f in mesh.cell_faces[c]:
            rule = face_rule(mesh, f, face_degree(k) + DATA_EXTRA_DEGREE)
            pts = rule.points
            # Columns follow FACE_ORDERS_3 without (0, 0).
            exact = np.hstack([case.grad(pts), case.hess(pts), case.third(pts)])
            tab = b.tables(pts, FACE_ORDERS_3[1:])
            gap = {key: exact[:, j] - tab[key] @ proj
                   for j, key in enumerate(FACE_ORDERS_3[1:])}
            _, _, d_nn, d_nt, d_nlap = face_derivatives(
                gap, mesh.outward_normal(c, f), mesh.face_tangent[f])
            wq = rule.weights
            acc += h ** 3 * wq @ d_nlap ** 2
            acc += h * wq @ d_nn ** 2 + h * wq @ d_nt ** 2
        total[c] = acc
    return float(np.sqrt(np.sum(total)))


def solve_and_measure(mesh, variant, k, bc_mode, case,
                      scaling="k2-all") -> tuple:
    """Assemble, solve, reconstruct, and measure one run.

    Returns (ErrorReport, HHOSolution, reconstructed field).
    """
    from .assembly import BoundaryData, assemble

    bdata = None if case.homogeneous else BoundaryData.from_case(case)
    system = assemble(mesh, variant=variant, k=k, bc_mode=bc_mode, f=case.f,
                      bdata=bdata, scaling=scaling)
    t0 = time.perf_counter()
    x = solve(system)
    solve_time = time.perf_counter() - t0
    solution = recover_cells(system, x)
    fld = reconstruct_field(system, solution)
    report = error_norms(mesh, fld, case, k, dofs=system.n_dofs,
                         assembly_time=system.assembly_time,
                         solve_time=solve_time)
    return report, solution, fld


def convergence_study(meshes, variant, k, bc_mode, case, scaling="k2-all",
                      csv_path=None, progress=None) -> RateTable:
    """Run a refinement family (coarse to fine) and fit convergence slopes."""
    reports = []
    try:
        for mesh in meshes:
            report, _, _ = solve_and_measure(mesh, variant, k, bc_mode, case,
                                             scaling=scaling)
            reports.append(report)
            if progress is not None:
                progress(report)
    except SolverError:
        if not reports:
            raise
        table = RateTable(reports)
        if csv_path:
            table.to_csv(csv_path)
        raise
    table = RateTable(reports)
    if csv_path:
        table.to_csv(csv_path)
    return table
