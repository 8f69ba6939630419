"""Global assembly with static condensation to a face-only SPD system.

Cell unknowns are eliminated locally through a Schur complement; the global
system couples only the face unknowns of interior faces.  Boundary conditions
are enforced either strongly (boundary-face unknowns prescribed from the data
and eliminated symmetrically with a right-hand-side lift) or weakly through
the Nitsche boundary penalty, in which case boundary faces carry no unknowns
at all.

Interior faces carry 2k+3 unknowns each for variants A and C and 2k+4 for
variant B.  The per-cell orientation signs are applied to the
normal-derivative blocks during scatter, so the global unknowns are tied to
the fixed face normals.
"""

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .common import DEFAULT_QUAD, AssemblyError, ConfigError
from .localops import build_local_matrices, space_degrees
from .mesh import CellShape, Mesh, translation_classes
from .polyspace import (CellBasis, FaceBasis, canonical_interp_face,
                        project_face)
from .quadrature import QuadratureRule, cell_rule, face_rule

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

    A cell that shares its operators with a translation class keeps R,
    lifting, chol_TT and A_Trest by reference.  Its local vectors are then in
    the frame of the class shape, where every face runs along the cell's loop:
    rest_sign and rest_fixed also negate the odd face monomials of the faces
    stored against the loop.
    """
    cell_id: int
    layout: object
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

    def local_vector(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([self.cell_coeffs(x), self.gather_rest(x)])


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
        rec = self.system.cells[cell_id]
        return np.concatenate([self.cell_coeffs[cell_id],
                               rec.gather_rest(self.face_values)])

    def face_trace(self, f: int) -> np.ndarray:
        dm = self.system.dofmap
        if dm.face_offset[f] >= 0:
            return self.face_values[dm.trace_dofs(f)]
        if f in self.system.prescribed:
            return self.system.prescribed[f][0]
        raise KeyError(f"face {f} carries no trace unknowns")

    def face_normal_deriv(self, f: int) -> np.ndarray:
        dm = self.system.dofmap
        if dm.face_offset[f] >= 0:
            return self.face_values[dm.normal_dofs(f)]
        if f in self.system.prescribed:
            return self.system.prescribed[f][1]
        raise KeyError(f"face {f} carries no normal unknowns")


def _prescribe_boundary(mesh, variant, k, bdata, quad):
    """Boundary face -> (trace coefficients, normal coefficients) from the data."""
    _, trace_deg, normal_deg = space_degrees(variant, k)
    out = {}
    fdeg = quad.face_base(k) + quad.bc_extra_degree
    for f in mesh.boundary_faces():
        rule = face_rule(mesh, f, fdeg)
        n_F = mesh.face_normal[f]
        if bdata is None:
            out[f] = (np.zeros(trace_deg + 1), np.zeros(normal_deg + 1))
            continue
        if variant == "B":
            tb = FaceBasis.for_face(mesh, f, trace_deg)
            tr = project_face(bdata.dirichlet, tb, rule).coeffs
        else:
            tb = FaceBasis.for_face(mesh, f, k + 1)
            tr = canonical_interp_face(bdata.dirichlet, k, tb, rule).coeffs
        nb = FaceBasis.for_face(mesh, f, normal_deg)
        nm = project_face(lambda p: bdata.neumann(p, n_F), nb, rule).coeffs
        out[f] = (tr, nm)
    return out


@dataclass
class _Condensed:
    """Local operators of a cell with its cell block eliminated.

    Built on a mesh cell or on a `CellShape`, which one instance then serves
    for a whole translation class.  The load rule and table are None when
    there is no load.
    """
    layout: object
    rec_basis: CellBasis
    R: np.ndarray
    lifting: Optional[np.ndarray]
    load_boundary: Optional[np.ndarray]
    chol_TT: tuple
    A_Trest: np.ndarray
    S_rr: np.ndarray
    load_rule: Optional[QuadratureRule]
    load_table: Optional[np.ndarray]


def _condense(geom, c, variant, k, nitsche, bdata, scaling, quad, with_load,
              cell_id):
    """Build the local operators of cell c of `geom` and eliminate the cell block."""
    ops = build_local_matrices(geom, c, variant=variant, k=k, scaling=scaling,
                               nitsche=nitsche, bdata=bdata, quad=quad,
                               check_kernel=False)
    nc = ops.layout.cell_dim
    A = ops.A
    A_Trest = A[:nc, nc:]
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
        rule = cell_rule(geom, c, quad.cell_base(k) + quad.rhs_extra_degree)
        cb = CellBasis.for_cell(geom, c, space_degrees(variant, k)[0])
        table = cb.eval(rule.points)
    return _Condensed(ops.layout, ops.rec_basis, ops.R, ops.lifting,
                      ops.load_boundary, chol, A_Trest, S_rr, rule, table)


def _face_flips(layout, signs):
    """+-1 per rest dof, from the cell's own frame to the frame of its shape.

    A face stored against the cell's loop runs the other way in the shape, so
    its odd monomials change sign, in the trace and in the normal block.
    """
    dims = layout.trace_dims + layout.normal_dims
    return np.concatenate([float(s) ** np.arange(d)
                           for s, d in zip(list(signs) * 2, dims)])


def _cell_contribution(mesh, c, loc, offset, f_load, prescribed, dofmap):
    """Load, boundary bookkeeping, rhs condensation and scatter data of a cell.

    `offset` is None when `loc` was built on the cell itself, and otherwise
    the translation that carries the class shape of `loc` onto the cell.
    """
    lay = loc.layout
    nc = lay.cell_dim

    b = np.zeros(lay.n_total)
    if f_load is not None:
        pts = loc.load_rule.points
        if offset is not None:
            pts = pts + offset
        vals = np.asarray(f_load(pts), dtype=np.float64)
        b[lay.cell_slice] = loc.load_table.T @ (loc.load_rule.weights * vals)
    if loc.load_boundary is not None:
        b += loc.load_boundary

    # Rest-block bookkeeping: global index, orientation sign, prescribed value.
    n_rest = lay.n_total - nc
    gidx = np.full(n_rest, -1, dtype=np.int64)
    sign = np.ones(n_rest)
    fixed = np.zeros(n_rest)
    for a, f in enumerate(mesh.cell_faces[c]):
        if lay.trace_dims[a] == 0:
            continue
        tsl = lay.trace_slice(a)
        nsl = lay.normal_slice(a)
        t0, n0 = tsl.start - nc, nsl.start - nc
        if dofmap.face_offset[f] >= 0:
            gidx[t0:t0 + lay.trace_dims[a]] = dofmap.trace_dofs(f)
            gidx[n0:n0 + lay.normal_dims[a]] = dofmap.normal_dofs(f)
            sign[n0:n0 + lay.normal_dims[a]] = mesh.cell_signs[c][a]
        else:
            tr, nm = prescribed[f]
            fixed[t0:t0 + lay.trace_dims[a]] = tr
            fixed[n0:n0 + lay.normal_dims[a]] = mesh.cell_signs[c][a] * nm
    rec_basis = loc.rec_basis
    if offset is not None:
        flip = _face_flips(lay, mesh.cell_signs[c])
        sign *= flip
        fixed *= flip
        rec_basis = CellBasis(offset, rec_basis.scale, rec_basis.degree,
                              cell_id=c)

    g_r = b[nc:] - loc.A_Trest.T @ sla.cho_solve(loc.chol_TT, b[:nc])
    unk = gidx >= 0
    S_uu = loc.S_rr[np.ix_(unk, unk)]
    rhs_u = g_r[unk] - loc.S_rr[np.ix_(unk, ~unk)] @ fixed[~unk]
    s_u = sign[unk]
    S_glob = S_uu * np.outer(s_u, s_u)
    rhs_glob = s_u * rhs_u

    rec = CellRecovery(cell_id=c, layout=lay, rec_basis=rec_basis, R=loc.R,
                       lifting=loc.lifting, chol_TT=loc.chol_TT,
                       A_Trest=loc.A_Trest, b_T=b[:nc], rest_gidx=gidx,
                       rest_sign=sign, rest_fixed=fixed)
    return gidx[unk], S_glob, rhs_glob, rec


def assemble(mesh: Mesh, variant: str = "A", k: int = 1,
             bc_mode: str = "strong", f=None, bdata: BoundaryData = None,
             scaling: str = "k2-all", quad=DEFAULT_QUAD) -> CondensedSystem:
    """Assemble the statically condensed global system.

    The local operators are built once per translation class of cells (see
    `translation_classes`), on the class shape centered at the origin: the
    reconstruction, the local form, the Cholesky factor of its cell block,
    the Schur complement and the load table.  A cell without a translate,
    and in Nitsche mode a cell on the boundary, whose data terms depend on
    where it is, builds its own.  Per cell: integrate the load at the
    translated points, apply the face orientation signs (for a shared build
    also the exact +-1 flips of the faces stored against the cell's loop),
    eliminate the cell block from the right-hand side, and scatter the Schur
    complement.  In strong mode, boundary-face unknowns are prescribed from
    the boundary data (canonical interpolation of g_D, L^2 projection of
    g_N) and moved to the right-hand side.  The result is symmetric positive
    definite.
    """
    t0 = time.perf_counter()
    dofmap = DofMap.create(mesh, variant, k, bc_mode)
    nitsche = bc_mode == "nitsche"
    prescribed = {}
    if bc_mode == "strong":
        prescribed = _prescribe_boundary(mesh, variant, k, bdata, quad)

    labels = translation_classes(mesh)
    own = labels < 0
    if nitsche:
        own[mesh.face_cells[mesh.is_boundary_face, 0]] = True
    build = (variant, k, nitsche, bdata, scaling, quad, f is not None)
    shapes, shared = {}, {}
    results = []
    for c in range(mesh.n_cells):
        lab = labels[c]
        if lab >= 0 and lab not in shapes:
            shapes[lab] = CellShape(mesh, c)
        if own[c]:
            loc, offset = _condense(mesh, c, *build, cell_id=c), None
        else:
            if lab not in shared:
                shared[lab] = _condense(shapes[lab], 0, *build, cell_id=c)
            loc, offset = shared[lab], shapes[lab].offset(mesh, c)
        results.append(_cell_contribution(mesh, c, loc, offset, f,
                                          prescribed, dofmap))

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
