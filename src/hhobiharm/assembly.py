"""Global assembly with static condensation to a face-only SPD system.

Cell unknowns are eliminated locally through a Schur complement; the global
system couples only the face unknowns of interior faces.  Boundary conditions
are enforced either strongly (boundary-face unknowns prescribed from the data
and eliminated symmetrically with a right-hand-side lift) or weakly through
the Nitsche boundary penalty, in which case boundary faces carry no unknowns
at all.

Interior faces carry 2k+3 unknowns each for variants A and C and 2k+4 for
variant B.  The global unknowns are tied to the stored face orientations and
the local vectors to each cell's loop frame; one +-1 per local face unknown
carries the one into the other during scatter and gather.
"""

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .common import AssemblyError, ConfigError
from .localops import (LocalOperators, build_local_matrices, reduce_face,
                       space_degrees)
from .mesh import CellShape, Mesh, class_members, translation_classes
from .polyspace import CellBasis
from .quadrature import (BC_EXTRA_DEGREE, RHS_EXTRA_DEGREE, QuadratureRule,
                         cell_degree, cell_rule, face_degree, face_rule)

__all__ = ["BoundaryData", "DofMap", "CondensedSystem", "CellRecovery",
           "assemble", "recover_cells", "HHOSolution"]

BC_MODES = ("strong", "nitsche")


class BoundaryData:
    """Dirichlet/Neumann data on the boundary of the domain.

    `g_D` is the prescribed trace and `g_N` the prescribed outward normal
    derivative; both take an (n, 2) point array (g_N additionally the unit
    outward normal of the face).  The full boundary gradient
    G = g_N n + (d_t g_D) t, needed by the Nitsche mode, is available when
    `grad` (the gradient of an extension of the data) is supplied.
    """

    def __init__(self, g_D=None, g_N=None, grad=None):
        self._g_D = g_D
        self._g_N = g_N
        self._grad = grad

    @classmethod
    def from_case(cls, case):
        return cls(g_D=case.u, grad=case.grad)

    @classmethod
    def homogeneous(cls):
        return cls()

    def dirichlet(self, pts):
        if self._g_D is None:
            return np.zeros(len(pts))
        return np.asarray(self._g_D(pts), dtype=np.float64)

    def neumann(self, pts, normal):
        if self._g_N is not None:
            return np.asarray(self._g_N(pts, normal), dtype=np.float64)
        if self._grad is not None:
            return np.asarray(self._grad(pts), dtype=np.float64) @ normal
        return np.zeros(len(pts))

    def boundary_gradient(self, pts, normal, tangent):
        """Gradient G on a boundary face, as an (n, 2) array."""
        if self._grad is not None:
            return np.asarray(self._grad(pts), dtype=np.float64)
        if self._g_D is None and self._g_N is None:
            return np.zeros((len(pts), 2))
        raise ConfigError("Nitsche boundary data needs the full gradient of "
                          "the Dirichlet datum; supply grad= to BoundaryData")

    def translated(self, offset):
        """The same data, taking points relative to `offset`."""
        def shift(fn):
            return None if fn is None else (
                lambda pts, *args: fn(pts + offset, *args))
        return BoundaryData(shift(self._g_D), shift(self._g_N),
                            shift(self._grad))


@dataclass(frozen=True)
class DofMap:
    """Numbering of the globally coupled face unknowns.

    Every interior face carries one trace block followed by one normal block;
    boundary faces are prescribed (strong mode) or absent (Nitsche mode).
    """
    variant: str
    k: int
    bc_mode: str
    trace_dim: int
    normal_dim: int
    face_offset: np.ndarray       # -1 for faces without unknowns
    n_dofs: int

    @classmethod
    def create(cls, mesh: Mesh, variant: str, k: int, bc_mode: str):
        if bc_mode not in BC_MODES:
            raise ConfigError(f"unknown bc mode {bc_mode!r}; expected {BC_MODES}")
        _, trace_deg, normal_deg = space_degrees(variant, k)
        td, nd = trace_deg + 1, normal_deg + 1
        offset = np.full(mesh.n_faces, -1, dtype=np.int64)
        pos = 0
        for f in mesh.interior_faces():
            offset[f] = pos
            pos += td + nd
        return cls(variant, k, bc_mode, td, nd, offset, pos)

    @property
    def dofs_per_interface(self):
        return self.trace_dim + self.normal_dim

    def trace_dofs(self, f: int) -> np.ndarray:
        start = self.face_offset[f]
        if start < 0:
            raise KeyError(f"face {f} carries no global unknowns")
        return np.arange(start, start + self.trace_dim)

    def normal_dofs(self, f: int) -> np.ndarray:
        start = self.face_offset[f]
        if start < 0:
            raise KeyError(f"face {f} carries no global unknowns")
        return np.arange(start + self.trace_dim,
                         start + self.trace_dim + self.normal_dim)


@dataclass
class CellRecovery:
    """Everything needed to recover and reconstruct one cell after the solve.

    R, lifting, chol_TT and A_Trest belong to the cell's translation class
    and are shared by reference.  Local vectors are in the cell's loop frame,
    where every face runs along the cell's vertex loop and rec_basis is
    centered at the translate of the class shape's origin.  rest_sign carries
    a global face value into that frame: s^j on the j-th trace monomial and
    s^(j+1) on the j-th normal monomial, s the stored face sign; rest_fixed
    holds the prescribed values already in that frame.
    """
    cell_id: int
    rec_basis: object
    R: np.ndarray
    lifting: Optional[np.ndarray]
    chol_TT: tuple
    A_Trest: np.ndarray
    b_T: np.ndarray
    rest_gidx: np.ndarray       # global index per rest dof, -1 if prescribed
    rest_sign: np.ndarray       # +-1 applied when gathering global values
    rest_fixed: np.ndarray      # prescribed local values (0 on unknowns)

    def gather_rest(self, x: np.ndarray) -> np.ndarray:
        vals = self.rest_fixed.copy()
        m = self.rest_gidx >= 0
        vals[m] = self.rest_sign[m] * x[self.rest_gidx[m]]
        return vals

    def cell_coeffs(self, x: np.ndarray) -> np.ndarray:
        rest = self.gather_rest(x)
        return sla.cho_solve(self.chol_TT, self.b_T - self.A_Trest @ rest)


@dataclass
class CondensedSystem:
    """Face-unknown SPD system plus per-cell recovery data."""
    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap
    mesh: Mesh
    variant: str
    k: int
    bc_mode: str
    scaling: str
    cells: list
    prescribed: dict            # face id -> (trace coeffs, normal coeffs)
    assembly_time: float = 0.0

    @property
    def n_dofs(self):
        return self.dofmap.n_dofs


@dataclass
class HHOSolution:
    """Recovered discrete solution: cell coefficients plus global face unknowns."""
    system: CondensedSystem
    face_values: np.ndarray
    cell_coeffs: list = field(default_factory=list)

    def local_vector(self, cell_id: int) -> np.ndarray:
        """Local unknowns of a cell in its loop frame (see `CellRecovery`),
        the frame of its R and lifting."""
        rec = self.system.cells[cell_id]
        return np.concatenate([self.cell_coeffs[cell_id],
                               rec.gather_rest(self.face_values)])


def _prescribe_boundary(mesh, variant, k, bdata):
    """Boundary face -> (trace coefficients, normal coefficients) from the data."""
    _, trace_deg, normal_deg = space_degrees(variant, k)
    fdeg = face_degree(k) + BC_EXTRA_DEGREE
    out = {}
    for f in mesh.boundary_faces():
        if bdata is None:
            out[f] = (np.zeros(trace_deg + 1), np.zeros(normal_deg + 1))
            continue
        n_F = mesh.face_normal[f]
        out[f] = reduce_face(mesh, f, bdata.dirichlet,
                             lambda p: bdata.neumann(p, n_F), variant, k,
                             face_rule(mesh, f, fdeg))
    return out


@dataclass
class _Condensed:
    """Local operators of a translation class with the cell block eliminated.

    Built on the class's `CellShape`.  The load rule and table are None when
    there is no load.
    """
    ops: LocalOperators
    chol_TT: tuple
    A_Trest: np.ndarray
    S_rr: np.ndarray
    load_rule: Optional[QuadratureRule]
    load_table: Optional[np.ndarray]


def _condense(shape, variant, k, nitsche, bdata, scaling, with_load, cell_id):
    """Build the local operators of a class shape and eliminate the cell block."""
    ops = build_local_matrices(shape, 0, variant=variant, k=k, scaling=scaling,
                               nitsche=nitsche, bdata=bdata,
                               check_kernel=False)
    nc = ops.layout.cell_dim
    A = ops.A
    A_Trest = A[:nc, nc:].copy()     # a view would keep all of A alive
    try:
        chol = sla.cho_factor(A[:nc, :nc])
    except sla.LinAlgError as err:
        raise AssemblyError(f"cell {cell_id}: singular cell block in static "
                            f"condensation") from err
    Y = sla.cho_solve(chol, A_Trest)
    S_rr = A[nc:, nc:] - A_Trest.T @ Y
    S_rr = 0.5 * (S_rr + S_rr.T)
    rule = table = None
    if with_load:
        rule = cell_rule(shape, 0, cell_degree(k) + RHS_EXTRA_DEGREE)
        cb = CellBasis.for_cell(shape, 0, space_degrees(variant, k)[0])
        table = cb.eval(rule.points)
    return _Condensed(ops, chol, A_Trest, S_rr, rule, table)


def _cell_contribution(mesh, c, loc, offset, f_load, prescribed, dofmap):
    """Load, boundary bookkeeping, rhs condensation and scatter data of a cell.

    `loc` is its class build and `offset` the translation that carries the
    class shape onto the cell.
    """
    ops = loc.ops
    lay = ops.layout
    nc = lay.cell_dim

    b = np.zeros(lay.n_total)
    if f_load is not None:
        vals = np.asarray(f_load(loc.load_rule.points + offset),
                          dtype=np.float64)
        b[lay.cell_slice] = loc.load_table.T @ (loc.load_rule.weights * vals)
    if ops.load_boundary is not None:
        b += ops.load_boundary

    # Rest-block bookkeeping: global index, prescribed value, and the sign
    # from the stored face orientation s to the loop frame.  A face stored
    # against the loop runs the other way there, so its odd monomials change
    # sign, and its normal block also takes the orientation s.
    n_rest = lay.n_total - nc
    gidx = np.full(n_rest, -1, dtype=np.int64)
    sign = np.ones(n_rest)
    fixed = np.zeros(n_rest)
    for a, f in enumerate(mesh.cell_faces[c]):
        td, nd = lay.trace_dims[a], lay.normal_dims[a]
        if td == 0:
            continue
        t0, n0 = lay.trace_slice(a).start - nc, lay.normal_slice(a).start - nc
        s = float(mesh.cell_signs[c][a])
        sign[t0:t0 + td] = s ** np.arange(td)
        sign[n0:n0 + nd] = s ** np.arange(1, nd + 1)
        if dofmap.face_offset[f] >= 0:
            gidx[t0:t0 + td] = dofmap.trace_dofs(f)
            gidx[n0:n0 + nd] = dofmap.normal_dofs(f)
        else:
            fixed[t0:t0 + td], fixed[n0:n0 + nd] = prescribed[f]
    fixed *= sign

    g_r = b[nc:] - loc.A_Trest.T @ sla.cho_solve(loc.chol_TT, b[:nc])
    unk = gidx >= 0
    S_uu = loc.S_rr[np.ix_(unk, unk)]
    rhs_u = g_r[unk] - loc.S_rr[np.ix_(unk, ~unk)] @ fixed[~unk]
    s_u = sign[unk]
    S_glob = S_uu * np.outer(s_u, s_u)
    rhs_glob = s_u * rhs_u

    rec_basis = CellBasis(offset, ops.rec_basis.scale, ops.rec_basis.degree,
                          cell_id=c)
    rec = CellRecovery(cell_id=c, rec_basis=rec_basis, R=ops.R,
                       lifting=ops.lifting, chol_TT=loc.chol_TT,
                       A_Trest=loc.A_Trest, b_T=b[:nc], rest_gidx=gidx,
                       rest_sign=sign, rest_fixed=fixed)
    return gidx[unk], S_glob, rhs_glob, rec


def assemble(mesh: Mesh, variant: str = "A", k: int = 1,
             bc_mode: str = "strong", f=None, bdata: BoundaryData = None,
             scaling: str = "k2-all") -> CondensedSystem:
    """Assemble the statically condensed global system.

    Works one translation class of cells (see `translation_classes`) at a
    time.  The local operators are built once per class, on its `CellShape`
    centered at the origin: the reconstruction, the local form, the Cholesky
    factor of its cell block, the Schur complement and the load table.  In
    Nitsche mode each boundary cell is a class of one, since its data terms
    depend on where it is; its boundary data is evaluated at the translated
    points.  Per member cell: integrate the load at the translated points,
    carry the face unknowns between the stored orientation and the cell's
    loop frame with an exact +-1 per unknown, eliminate the cell block from
    the right-hand side, and scatter the Schur complement.  The class build
    is dropped before the next class starts.  In strong mode, boundary-face
    unknowns are prescribed from the boundary data (canonical interpolation
    of g_D, L^2 projection of g_N) and moved to the right-hand side.  The
    result is symmetric positive definite.
    """
    t0 = time.perf_counter()
    dofmap = DofMap.create(mesh, variant, k, bc_mode)
    nitsche = bc_mode == "nitsche"
    prescribed = {}
    if bc_mode == "strong":
        prescribed = _prescribe_boundary(mesh, variant, k, bdata)

    labels = translation_classes(mesh)
    if nitsche:
        on_boundary = np.unique(mesh.face_cells[mesh.is_boundary_face, 0])
        labels[on_boundary] = labels.max() + 1 + np.arange(len(on_boundary))
    results = [None] * mesh.n_cells
    for members in class_members(labels):
        shape = CellShape(mesh, members[0])
        data = (None if bdata is None
                else bdata.translated(shape.offset(mesh, members[0])))
        loc = _condense(shape, variant, k, nitsche, data, scaling,
                        f is not None, cell_id=members[0])
        for c in members:
            results[c] = _cell_contribution(mesh, c, loc,
                                            shape.offset(mesh, c), f,
                                            prescribed, dofmap)

    rows, cols, vals = [], [], []
    rhs = np.zeros(dofmap.n_dofs)
    recs = []
    for gidx, S_glob, rhs_glob, rec in results:
        recs.append(rec)
        if len(gidx):
            rr, cc = np.meshgrid(gidx, gidx, indexing="ij")
            rows.append(rr.ravel())
            cols.append(cc.ravel())
            vals.append(S_glob.ravel())
            np.add.at(rhs, gidx, rhs_glob)

    n = dofmap.n_dofs
    if rows:
        matrix = sp.coo_matrix((np.concatenate(vals),
                                (np.concatenate(rows), np.concatenate(cols))),
                               shape=(n, n)).tocsr()
    else:
        matrix = sp.csr_matrix((n, n))
    return CondensedSystem(matrix=matrix, rhs=rhs, dofmap=dofmap, mesh=mesh,
                           variant=variant, k=k, bc_mode=bc_mode,
                           scaling=scaling, cells=recs, prescribed=prescribed,
                           assembly_time=time.perf_counter() - t0)


def recover_cells(system: CondensedSystem, face_values: np.ndarray) -> HHOSolution:
    """Recover the cell unknowns from the face solution (local back-solves)."""
    face_values = np.asarray(face_values, dtype=np.float64)
    if len(face_values) != system.n_dofs:
        raise ValueError(f"face solution has length {len(face_values)}, "
                         f"expected {system.n_dofs}")
    sol = HHOSolution(system=system, face_values=face_values)
    for rec in system.cells:
        sol.cell_coeffs.append(rec.cell_coeffs(face_values))
    return sol
