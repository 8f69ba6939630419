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
carries the one into the other during scatter and gather.  These signs are
stacked per translation class, one row per member cell, and applied to the
whole class at once.
"""

import time
from dataclasses import dataclass
from functools import lru_cache
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

__all__ = ["BoundaryData", "DofMap", "CondensedSystem", "ClassRecovery",
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

    def boundary_gradient(self, pts):
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


@dataclass
class ClassRecovery:
    """What recovers and reconstructs the cells of one translation class
    after the solve; the stacked arrays have one row per member.

    R, lifting, chol_TT, A_Trest and rec_basis (centered at the origin) are
    the class's.  Local vectors are in each member's loop frame, into which
    rest_sign carries the global face values (see `_rest_map`).
    """
    members: np.ndarray         # cell ids, ascending
    offsets: np.ndarray         # (m, 2) translations of the shape onto them
    rec_basis: CellBasis
    R: np.ndarray
    lifting: Optional[np.ndarray]
    chol_TT: tuple
    A_Trest: np.ndarray
    b_T: np.ndarray             # (m, nc) cell rows of the right-hand side
    rest_gidx: np.ndarray       # (m, n_rest) global index, -1 if prescribed
    rest_sign: np.ndarray       # (m, n_rest) +-1 applied when gathering
    rest_fixed: np.ndarray      # (m, n_rest) prescribed values, 0 on unknowns

    def gather_rest(self, x0: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Face unknowns of the members in `rows`, in their loop frames; `x0`
        is the face solution and one zero, read by prescribed unknowns."""
        return (self.rest_fixed[rows]
                + self.rest_sign[rows] * x0[self.rest_gidx[rows]])

    def cell_coeffs(self, x0: np.ndarray) -> np.ndarray:
        """Cell unknowns of every member, one row each (`x0` as above)."""
        rest = self.gather_rest(x0)
        return sla.cho_solve(self.chol_TT,
                             (self.b_T - rest @ self.A_Trest.T).T).T


@dataclass
class CondensedSystem:
    """Face-unknown SPD system plus per-class recovery data."""
    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap
    mesh: Mesh
    variant: str
    k: int
    bc_mode: str
    scaling: str
    classes: list
    labels: np.ndarray          # index in `classes` of each cell's class
    prescribed: dict            # face id -> (trace coeffs, normal coeffs)
    assembly_time: float = 0.0

    @property
    def n_dofs(self):
        return self.dofmap.n_dofs


@dataclass
class HHOSolution:
    """Recovered discrete solution: cell coefficients, one row per cell, plus
    the global face unknowns."""
    system: CondensedSystem
    face_values: np.ndarray
    cell_coeffs: np.ndarray

    def local_vector(self, cell_id: int) -> np.ndarray:
        """Local unknowns of a cell in its loop frame (see `ClassRecovery`),
        the frame of its R and lifting."""
        cls = self.system.classes[self.system.labels[cell_id]]
        row = np.searchsorted(cls.members, cell_id)
        x0 = np.append(self.face_values, 0.0)
        return np.concatenate([self.cell_coeffs[cell_id],
                               cls.gather_rest(x0, row)])


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


@lru_cache(maxsize=64)
def _rest_map(layout):
    """Face position, index in the face's global [trace | normal] block, and
    power of the stored face sign s, of each rest unknown of a layout
    (traces, then normals).  A face stored against the loop runs the other
    way in the loop frame, so its odd monomials change sign (s^j on trace
    monomial j), and its normal block also takes the orientation (s^(j+1)
    on normal monomial j).  The arrays are cached, so they are read-only."""
    td, nd = np.array(layout.trace_dims), np.array(layout.normal_dims)
    jt = np.arange(td.sum()) - np.repeat(np.cumsum(td) - td, td)
    jn = np.arange(nd.sum()) - np.repeat(np.cumsum(nd) - nd, nd)
    pos = np.arange(layout.n_faces)
    out = (np.concatenate([np.repeat(pos, td), np.repeat(pos, nd)]),
           np.concatenate([jt, np.repeat(td, nd) + jn]),
           np.concatenate([jt, jn + 1]))
    for arr in out:
        arr.flags.writeable = False
    return out


def _class_contribution(mesh, members, shape, loc, f_load, fixed_table,
                        dofmap):
    """Load, boundary bookkeeping, rhs condensation and scatter data of the
    members of a translation class, whose build on `shape` is `loc`.

    `fixed_table` holds each face's prescribed [trace | normal] values in
    its stored orientation.  Returns the COO triple and the right-hand side
    entries of the class, and its `ClassRecovery`.
    """
    ops = loc.ops
    lay = ops.layout
    nc = lay.cell_dim
    m = len(members)
    offsets = shape.offsets(mesh, members)

    b = np.zeros((m, lay.n_total))
    if f_load is not None:
        pts = loc.load_rule.points[None] + offsets[:, None]
        vals = np.asarray(f_load(pts.reshape(-1, 2)),
                          dtype=np.float64).reshape(m, -1)
        b[:, :nc] = (vals * loc.load_rule.weights) @ loc.load_table
    if ops.load_boundary is not None:
        b += ops.load_boundary

    face, block, power = _rest_map(lay)
    faces = np.array([mesh.cell_faces[c] for c in members])[:, face]
    sign = np.array([mesh.cell_signs[c] for c in members],
                    dtype=np.float64)[:, face] ** power
    start = dofmap.face_offset[faces]
    unk = start >= 0
    gidx = np.where(unk, start + block, -1)
    fixed = np.where(unk, 0.0, fixed_table[faces, block]) * sign

    g_r = b[:, nc:] - sla.cho_solve(loc.chol_TT, b[:, :nc].T).T @ loc.A_Trest
    rhs_loc = sign * (g_r - fixed @ loc.S_rr)
    S = loc.S_rr * sign[:, :, None] * sign[:, None, :]
    pair = unk[:, :, None] & unk[:, None, :]
    rows = np.broadcast_to(gidx[:, :, None], S.shape)[pair]
    cols = np.broadcast_to(gidx[:, None, :], S.shape)[pair]

    rec = ClassRecovery(members=members, offsets=offsets,
                        rec_basis=ops.rec_basis, R=ops.R,
                        lifting=ops.lifting, chol_TT=loc.chol_TT,
                        A_Trest=loc.A_Trest, b_T=b[:, :nc], rest_gidx=gidx,
                        rest_sign=sign, rest_fixed=fixed)
    return (rows, cols, S[pair]), (gidx[unk], rhs_loc[unk]), rec


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
    points.  For all members of a class at once: integrate the load at the
    translated points, carry the face unknowns between the stored
    orientation and each cell's loop frame with an exact +-1 per unknown,
    eliminate the cell block from the right-hand side, and scatter the Schur
    complement.  The class build is dropped before the next class starts.
    In strong mode, boundary-face unknowns are prescribed from the boundary
    data (canonical interpolation of g_D, L^2 projection of g_N) and moved to
    the right-hand side.  The result is symmetric positive definite.
    """
    t0 = time.perf_counter()
    dofmap = DofMap.create(mesh, variant, k, bc_mode)
    nitsche = bc_mode == "nitsche"
    prescribed = {}
    fixed_table = np.zeros((mesh.n_faces, dofmap.dofs_per_interface))
    if bc_mode == "strong":
        prescribed = _prescribe_boundary(mesh, variant, k, bdata)
        for face, (tr, nm) in prescribed.items():
            fixed_table[face] = np.concatenate([tr, nm])

    labels = translation_classes(mesh)
    if nitsche:
        on_boundary = np.unique(mesh.face_cells[mesh.is_boundary_face, 0])
        labels[on_boundary] = labels.max() + 1 + np.arange(len(on_boundary))
        # Number the classes 0, 1, ... again: a class may have lost every
        # member to the boundary.
        labels = np.unique(labels, return_inverse=True)[1]
    triples, loads, classes = [], [], []
    for members in class_members(labels):
        shape = CellShape(mesh, members[0])
        data = (None if bdata is None
                else bdata.translated(shape.offsets(mesh, members[:1])[0]))
        loc = _condense(shape, variant, k, nitsche, data, scaling,
                        f is not None, cell_id=members[0])
        triple, load, rec = _class_contribution(mesh, members, shape, loc, f,
                                                fixed_table, dofmap)
        triples.append(triple)
        loads.append(load)
        classes.append(rec)

    n = dofmap.n_dofs
    rows, cols, vals = (np.concatenate(part) for part in zip(*triples))
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    gidx, rhs_vals = (np.concatenate(part) for part in zip(*loads))
    rhs = np.bincount(gidx, weights=rhs_vals, minlength=n)
    return CondensedSystem(matrix=matrix, rhs=rhs, dofmap=dofmap, mesh=mesh,
                           variant=variant, k=k, bc_mode=bc_mode,
                           scaling=scaling, classes=classes, labels=labels,
                           prescribed=prescribed,
                           assembly_time=time.perf_counter() - t0)


def recover_cells(system: CondensedSystem, face_values: np.ndarray) -> HHOSolution:
    """Recover the cell unknowns from the face solution: one local back-solve
    per translation class, for all its members at once."""
    face_values = np.asarray(face_values, dtype=np.float64)
    if len(face_values) != system.n_dofs:
        raise ValueError(f"face solution has length {len(face_values)}, "
                         f"expected {system.n_dofs}")
    x0 = np.append(face_values, 0.0)
    nc = system.classes[0].b_T.shape[1]
    coeffs = np.empty((len(system.labels), nc))
    for cls in system.classes:
        coeffs[cls.members] = cls.cell_coeffs(x0)
    return HHOSolution(system=system, face_values=face_values,
                       cell_coeffs=coeffs)
