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
whole class at once.  Classes of the same shape and size are handled in
batches (see `shape_batches`), with a leading class axis on every stack.
The global matrix is a block matrix with one dofs_per_interface square
block per pair of interior faces that share a cell.
"""

import time
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .common import AssemblyError, ConfigError, by_columns, tr
from .localops import LocalOperators, build_local_matrices, space_degrees
from .mesh import (CellShape, Mesh, class_members, shape_batches,
                   translation_classes)
from .polyspace import CellBasis, FaceBasis, _canonical_dof_rows, _gram
from .quadrature import (BC_EXTRA_DEGREE, RHS_EXTRA_DEGREE, QuadratureRule,
                         cell_degree, cell_rule, face_degree, face_rule)

__all__ = ["BoundaryData", "DofMap", "CondensedSystem", "ClassRecovery",
           "assemble", "recover_cells", "HHOSolution"]

BC_MODES = ("strong", "nitsche")


class BoundaryData:
    """Dirichlet/Neumann data on the boundary of the domain.

    `g_D` is the prescribed trace and takes an (n, 2) point array; `g_N` is
    the prescribed outward normal derivative and takes the points and one
    unit outward normal per point, both (n, 2), so that one call covers
    points on many faces.  Without `g_N` the normal derivative is n . grad
    from `grad` (the gradient of an extension of the data), which also gives
    the full boundary gradient G = g_N n + (d_t g_D) t needed by the Nitsche
    mode.
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

    def neumann(self, pts, normals):
        """g_N at boundary points (n, 2), given the unit outward normal at
        each point, (n, 2)."""
        if self._g_N is not None:
            return np.asarray(self._g_N(pts, normals), dtype=np.float64)
        if self._grad is not None:
            return np.einsum("ij,ij->i", np.asarray(self._grad(pts),
                                                    dtype=np.float64), normals)
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
        """The same data, taking points relative to `offset`.  With offsets
        (B, 2), one per cell of a stack, the points come as B equal blocks,
        one per cell, each taken relative to its own offset."""
        offset = np.asarray(offset)
        lead = offset.shape[:-1]

        def shift(fn):
            def moved(pts, *args):
                blocks = pts.reshape(lead + (-1, 2)) + offset[..., None, :]
                return fn(blocks.reshape(-1, 2), *args)
            return None if fn is None else moved
        return BoundaryData(shift(self._g_D), shift(self._g_N),
                            shift(self._grad))


@dataclass(frozen=True)
class DofMap:
    """Numbering of the globally coupled face unknowns.

    Every interior face carries one trace block followed by one normal block,
    together `dofs_per_interface` unknowns starting at `face_offset`, which
    is the face's rank among the interior faces times that count; boundary
    faces are prescribed (strong mode) or absent (Nitsche mode).
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
        interior = mesh.interior_faces()
        offset[interior] = np.arange(len(interior)) * (td + nd)
        return cls(variant, k, bc_mode, td, nd, offset,
                   len(interior) * (td + nd))

    @property
    def dofs_per_interface(self):
        return self.trace_dim + self.normal_dim


@dataclass
class ClassRecovery:
    """What recovers and reconstructs the cells of a batch of translation
    classes after the solve.  Every array has a leading class axis, and the
    member arrays one row per class and one column per member.

    R, lifting, A_TT (the cell block of the local form), A_Trest and
    rec_basis (centered at the origin) are the classes'.  Local vectors are
    in each member's loop frame, into which rest_sign carries the global face
    values (see `_rest_map`).
    """
    members: np.ndarray         # (B, m) cell ids, each row ascending
    offsets: np.ndarray         # (B, m, 2) translations of the shapes onto them
    rec_basis: CellBasis
    R: np.ndarray
    lifting: Optional[np.ndarray]
    A_TT: np.ndarray
    A_Trest: np.ndarray
    b_T: np.ndarray             # (B, m, nc) cell rows of the right-hand side
    rest_gidx: np.ndarray       # (B, m, n_rest) global index, -1 if prescribed
    rest_sign: np.ndarray       # (B, m, n_rest) +-1 applied when gathering
    rest_fixed: np.ndarray      # (B, m, n_rest) prescribed values, 0 on unknowns

    def gather_rest(self, x0: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Face unknowns of the members in `rows`, in their loop frames; `x0`
        is the face solution and one zero, read by prescribed unknowns."""
        return (self.rest_fixed[rows]
                + self.rest_sign[rows] * x0[self.rest_gidx[rows]])

    def cell_coeffs(self, x0: np.ndarray) -> np.ndarray:
        """Cell unknowns of every member, (B, m, nc) (`x0` as above)."""
        rest = self.gather_rest(x0)
        return tr(_cell_solve(self.A_TT,
                              tr(self.b_T - rest @ tr(self.A_Trest))))


@dataclass
class CondensedSystem:
    """Face-unknown SPD system plus per-class recovery data.

    `prescribed` holds the prescribed [trace | normal] values of every face
    in its stored orientation, one row per face: the strong boundary data on
    boundary faces, zero elsewhere and in Nitsche mode.
    """
    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap
    mesh: Mesh
    variant: str
    k: int
    bc_mode: str
    scaling: str
    classes: list               # one ClassRecovery per batch of classes
    labels: np.ndarray          # index in `classes` of each cell's batch
    prescribed: np.ndarray      # (n_faces, dofs_per_interface)
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
        row = tuple(np.argwhere(cls.members == cell_id)[0])
        x0 = np.append(self.face_values, 0.0)
        return np.concatenate([self.cell_coeffs[cell_id],
                               cls.gather_rest(x0, row)])


def _face_solve(M, rhs, assume_a):
    """Solve the systems of a stack of faces, each as `sla.solve` solves a
    single one: a 1 x 1 system by division."""
    if M.shape[-1] == 1:
        return rhs / M[..., 0]
    return sla.solve(M, rhs[..., None], assume_a=assume_a)[..., 0]


def _project_faces(table, weights, vals):
    """L^2 projections on a stack of faces, as `project_face` takes one."""
    rhs = (tr(table) @ (weights * vals)[..., None])[..., 0]
    return _face_solve(_gram(table, weights), rhs, "pos")


def _prescribe_boundary(mesh, variant, k, bdata):
    """The prescribed [trace | normal] values of every face in its stored
    orientation, (n_faces, td + nd); zero off the boundary and without data.

    All boundary faces at once, with the arithmetic of `reduce_face` on each:
    the trace block is the canonical hybrid interpolation of g_D (variants
    A, C) or its L^2 projection (B), the normal block the L^2 projection of
    g_N.  The data is evaluated once on every rule point, and g_D once more
    on every face endpoint.
    """
    _, trace_deg, normal_deg = space_degrees(variant, k)
    table = np.zeros((mesh.n_faces, trace_deg + normal_deg + 2))
    if bdata is None:
        return table
    faces = mesh.boundary_faces()
    rule = face_rule(mesh, faces, face_degree(k) + BC_EXTRA_DEGREE)
    w = rule.weights
    pts = rule.points.reshape(-1, 2)
    g_D = bdata.dirichlet(pts).reshape(w.shape)
    normals = np.repeat(mesh.face_normal[faces], w.shape[-1], axis=0)
    g_N = bdata.neumann(pts, normals).reshape(w.shape)
    tb = FaceBasis.for_face(mesh, faces, trace_deg)
    if variant == "B":
        trace = _project_faces(tb.eval(rule.points), w, g_D)
    else:
        half = 0.5 * tb.length[:, None] * tb.tangent
        ends = np.stack([tb.midpoint - half, tb.midpoint + half], axis=1)
        d = [bdata.dirichlet(ends.reshape(-1, 2)).reshape(-1, 2)]
        if k >= 1:
            theta = tb.eval_param(tb.param(rule.points))[..., :k]
            d.append((tr(theta) @ (w * g_D)[..., None])[..., 0])
        D = _canonical_dof_rows(tb, k, rule, "monomial")
        trace = _face_solve(D, np.concatenate(d, axis=-1), None)
    nb = FaceBasis.for_face(mesh, faces, normal_deg)
    table[faces, :trace_deg + 1] = trace
    table[faces, trace_deg + 1:] = _project_faces(nb.eval(rule.points), w, g_N)
    return table


@dataclass
class _Condensed:
    """Local operators of a batch of translation classes with the cell block
    eliminated, stacked along a leading class axis.

    Built on the batch's `CellShape`.  The load rule and table are None when
    there is no load.
    """
    ops: LocalOperators
    A_TT: np.ndarray
    A_Trest: np.ndarray
    S_rr: np.ndarray
    load_rule: Optional[QuadratureRule]
    load_table: Optional[np.ndarray]


def _cell_solve(A_TT, rhs):
    """Solve with the SPD cell blocks (one Cholesky solve per class), the
    solution stored as LAPACK returns it.  On stretched cells the monomial
    cell block is badly scaled (a condition estimate of 2e-28 on the 256 x 2
    rectangles at k = 2); like a plain Cholesky factorization, this solve
    does not warn about it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        return by_columns(sla.solve(A_TT, rhs, assume_a="pos"))


def _condense(shape, variant, k, nitsche, bdata, scaling, with_load, cells):
    """Build the local operators of the class shapes of a batch and eliminate
    the cell block; `cells` names the classes' first cells in errors."""
    ids = np.arange(len(cells))
    ops = build_local_matrices(shape, ids, variant=variant, k=k,
                               scaling=scaling, nitsche=nitsche, bdata=bdata,
                               check_kernel=False)
    nc = ops.layout.cell_dim
    A = ops.A
    A_TT = A[..., :nc, :nc].copy()      # views would keep all of A alive
    A_Trest = A[..., :nc, nc:].copy()
    try:
        Y = _cell_solve(A_TT, A_Trest)
    except sla.LinAlgError as err:
        raise AssemblyError(f"cells {cells.tolist()}: singular cell block in "
                            f"static condensation") from err
    S_rr = A[..., nc:, nc:] - tr(A_Trest) @ Y
    S_rr = 0.5 * (S_rr + tr(S_rr))
    rule = table = None
    if with_load:
        rule = cell_rule(shape, ids, cell_degree(k) + RHS_EXTRA_DEGREE)
        cb = CellBasis.for_cell(shape, ids, space_degrees(variant, k)[0])
        table = cb.eval(rule.points)
    return _Condensed(ops, A_TT, A_Trest, S_rr, rule, table)


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


@lru_cache(maxsize=64)
def _face_order(layout):
    """Face-major order of the rest unknowns of a layout: the permutation
    that lists each face's unknowns in the order of its global
    [trace | normal] block, face after face, and the positions of the faces
    that carry unknowns.  The arrays are cached, so they are read-only."""
    face, block, _ = _rest_map(layout)
    out = np.lexsort((block, face)), np.unique(face)
    for arr in out:
        arr.flags.writeable = False
    return out


def _class_contribution(mesh, members, shape, loc, f_load, fixed_table,
                        dofmap):
    """Load, boundary bookkeeping, rhs condensation and scatter data of the
    members (B, m) of a batch of translation classes, whose build on `shape`
    is `loc`.

    `fixed_table` holds each face's prescribed [trace | normal] values in
    its stored orientation.  Each member's signed Schur complement is put in
    face-major order (see `_face_order`) and cut into one d x d block per
    pair of its faces with unknowns, d = `dofs_per_interface`.  Returns the
    block rows, block columns and blocks, the global indices and values of
    the right-hand side entries, and the batch's `ClassRecovery`.
    """
    ops = loc.ops
    lay = ops.layout
    nc = lay.cell_dim
    offsets = shape.offsets(mesh, members)

    b = np.zeros(members.shape + (lay.n_total,))
    if f_load is not None:
        pts = loc.load_rule.points[:, None] + offsets[:, :, None]
        vals = np.asarray(f_load(pts.reshape(-1, 2)),
                          dtype=np.float64).reshape(pts.shape[:-1])
        b[..., :nc] = (vals * loc.load_rule.weights[:, None]) @ loc.load_table
    if ops.load_boundary is not None:
        b += ops.load_boundary[:, None]

    face, block, power = _rest_map(lay)
    rows = mesh.cell_rows(members)
    # Per class, an (m, n_rest) table stored column by column, the layout
    # that the products below read.
    faces = by_columns(rows.faces[..., face])
    sign = by_columns(rows.signs[..., face].astype(np.float64) ** power)
    start = dofmap.face_offset[faces]
    unk = start >= 0
    gidx = np.where(unk, start + block, -1)
    fixed = np.where(unk, 0.0, fixed_table[faces, block]) * sign

    g_r = b[..., nc:] - tr(_cell_solve(loc.A_TT, tr(b[..., :nc]))) @ loc.A_Trest
    rhs_loc = sign * (g_r - fixed @ loc.S_rr)

    order, at = _face_order(lay)
    d = dofmap.dofs_per_interface
    S_rr = loc.S_rr[:, order[:, None], order]
    sgn = sign[..., order]
    S = S_rr[:, None] * sgn[..., :, None] * sgn[..., None, :]
    nf = len(at)
    blocks = S.reshape(members.shape + (nf, d, nf, d)).swapaxes(-3, -2)
    key = dofmap.face_offset[rows.faces[..., at]] // d
    pair = (key[..., :, None] >= 0) & (key[..., None, :] >= 0)
    brow = np.broadcast_to(key[..., :, None], pair.shape)[pair]
    bcol = np.broadcast_to(key[..., None, :], pair.shape)[pair]

    rec = ClassRecovery(members=members, offsets=offsets,
                        rec_basis=ops.rec_basis, R=ops.R,
                        lifting=ops.lifting, A_TT=loc.A_TT,
                        A_Trest=loc.A_Trest, b_T=b[..., :nc], rest_gidx=gidx,
                        rest_sign=sign, rest_fixed=fixed)
    return (brow, bcol, blocks[pair]), (gidx[unk], rhs_loc[unk]), rec


def _block_matrix(brow, bcol, blocks, n):
    """The n x n CSR matrix of d x d blocks at block rows and columns, the
    blocks at one position summed in the order given.  A position has at
    most two blocks (from the two cells of a face), so the sum does not
    depend on that order."""
    d = blocks.shape[-1]
    nb = n // d
    key = brow * nb + bcol
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.diff(key, prepend=-1) != 0
    first = np.flatnonzero(new)
    data = blocks[order[first]]
    at = np.cumsum(new) - 1             # output block of each sorted block
    rank = np.arange(len(key)) - first[at]
    for r in range(1, rank.max(initial=0) + 1):
        later = rank == r
        data[at[later]] += blocks[order[later]]
    indptr = np.searchsorted(key[first], np.arange(nb + 1) * nb)
    return sp.bsr_matrix((data, key[first] % nb, indptr),
                         shape=(n, n)).tocsr()


def assemble(mesh: Mesh, variant: str = "A", k: int = 1,
             bc_mode: str = "strong", f=None, bdata: BoundaryData = None,
             scaling: str = "k2-all") -> CondensedSystem:
    """Assemble the statically condensed global system.

    Works one batch of translation classes of cells (see
    `translation_classes` and `shape_batches`) at a time.  The local
    operators are built once per class, on its `CellShape` centered at the
    origin, in one stacked `build_local_matrices` call per batch: the
    reconstruction, the local form, its cell block, the Schur complement and
    the load table.  In Nitsche mode each boundary cell is a class of one,
    since its data terms depend on where it is; its boundary data is
    evaluated at the translated points.  For all members of a batch at once:
    integrate the load at the translated points, carry the face unknowns
    between the stored orientation and each cell's loop frame with an exact
    +-1 per unknown, eliminate the cell block from the right-hand side, and
    cut the signed Schur complement into face blocks.  The batch build is
    dropped before the next batch starts.  The blocks of all batches are
    sorted by position once, the at most two at a position summed, and the
    CSR matrix built from the block rows, so the system does not depend on
    the batching.  In strong mode, boundary-face unknowns are prescribed
    from the boundary data, all boundary faces in one stacked pass
    (canonical interpolation of g_D, L^2 projection of g_N; see
    `_prescribe_boundary`), and moved to the right-hand side.  The result is
    symmetric positive definite.
    """
    t0 = time.perf_counter()
    dofmap = DofMap.create(mesh, variant, k, bc_mode)
    nitsche = bc_mode == "nitsche"
    fixed_table = _prescribe_boundary(mesh, variant, k,
                                      None if nitsche else bdata)

    labels = translation_classes(mesh)
    if nitsche:
        on_boundary = np.unique(mesh.face_cells[mesh.is_boundary_face, 0])
        labels[on_boundary] = labels.max() + 1 + np.arange(len(on_boundary))
        # Number the classes 0, 1, ... again: a class may have lost every
        # member to the boundary.
        labels = np.unique(labels, return_inverse=True)[1]
    members = class_members(labels)
    bare = None
    if nitsche:     # the boundary faces of a class carry no unknowns
        bare = [tuple(mesh.is_boundary_face[mesh.cell_rows(m[0]).faces])
                for m in members]
    parts, loads = [], []
    classes, batch_of = [], np.empty(mesh.n_cells, dtype=np.int64)
    for batch in shape_batches(mesh, members, bare):
        cells = np.array([members[i] for i in batch])
        shape = CellShape(mesh, cells[:, 0])
        data = (None if bdata is None
                else bdata.translated(shape.offsets(mesh, cells[:, :1])[:, 0]))
        loc = _condense(shape, variant, k, nitsche, data, scaling,
                        f is not None, cells[:, 0])
        part, load, rec = _class_contribution(mesh, cells, shape, loc, f,
                                              fixed_table, dofmap)
        parts.append(part)
        loads.append(load)
        batch_of[cells] = len(classes)
        classes.append(rec)

    n = dofmap.n_dofs
    matrix = _block_matrix(*(np.concatenate(p) for p in zip(*parts)), n)
    gidx, rhs_vals = (np.concatenate(p) for p in zip(*loads))
    rhs = np.bincount(gidx, weights=rhs_vals, minlength=n)
    return CondensedSystem(matrix=matrix, rhs=rhs, dofmap=dofmap, mesh=mesh,
                           variant=variant, k=k, bc_mode=bc_mode,
                           scaling=scaling, classes=classes, labels=batch_of,
                           prescribed=fixed_table,
                           assembly_time=time.perf_counter() - t0)


def recover_cells(system: CondensedSystem, face_values: np.ndarray) -> HHOSolution:
    """Recover the cell unknowns from the face solution: one stacked local
    back-solve per batch of translation classes, for all members at once."""
    face_values = np.asarray(face_values, dtype=np.float64)
    if len(face_values) != system.n_dofs:
        raise ValueError(f"face solution has length {len(face_values)}, "
                         f"expected {system.n_dofs}")
    x0 = np.append(face_values, 0.0)
    nc = system.classes[0].b_T.shape[-1]
    coeffs = np.empty((len(system.labels), nc))
    for cls in system.classes:
        coeffs[cls.members] = cls.cell_coeffs(x0)
    return HHOSolution(system=system, face_values=face_values,
                       cell_coeffs=coeffs)
