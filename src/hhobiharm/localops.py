"""Per-cell operators of the hybrid discretization.

Each cell carries a triple of unknowns (v_K, v_dK, g_dK): a cell polynomial,
face trace polynomials, and face normal-derivative polynomials (g_dK is taken
along the outward normal of the cell).  The reconstruction R maps the triple
to a degree-(k+2) polynomial through a Hessian variational problem closed by
matching the moments against affine functions, the stabilization S penalizes
projected mismatches between the cell and face unknowns, and the local
bilinear form is A = R^T G R + S with G the Hessian Gram matrix.

Space layout per variant (cell degree, trace degree, normal degree):
    A: (k+2, k+1, k)    traces penalized through the canonical hybrid
                        interpolation onto P^{k+1} of each face
    B: (k+2, k+2, k)    plain L^2 penalties only
    C: (k+1, k+1, k)    cheaper cell space; S built from R itself
In Nitsche mode boundary faces carry no unknowns; the missing boundary
conditions enter through a boundary penalty on the cell unknown and a lifting
of the boundary data.

Local vectors are ordered [cell | face traces in loop order | face normals in
loop order].  All builders are pure functions of (mesh, cell, config) that
read only the geometry of that one cell, so they also accept a `CellShape`,
which is how assembly calls them: once per translation class of cells, in
the loop frame of the class shape.  Given an array of cells of one vertex
count, of a `Mesh` or a `CellShape` (whose rows `cell_rows` gathers), they
build all of them at once, stacked along a leading cell axis, with the bits
of one cell at a time.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla

from .common import (AssemblyError, ConfigError, by_columns, stab_factors,
                     tr)
from .mesh import Mesh
from .polyspace import (FACE_ORDERS_2, FACE_ORDERS_3, CellBasis, FaceBasis,
                        PolyCoeffs, canonical_interp_face, face_derivatives,
                        project_cell, project_face, reference_interp_matrix,
                        space_dim)
from .quadrature import (BC_EXTRA_DEGREE, DATA_EXTRA_DEGREE, cell_degree,
                         cell_rule, face_degree, face_rule)

__all__ = [
    "LocalDofLayout", "LocalOperators", "make_layout",
    "build_reconstruction", "build_stabilization", "build_seminorm_gram",
    "build_local_matrices", "reduce_cell", "reduce_face",
    "elliptic_projection_oracle",
    "local_seminorm", "rigid_modes", "space_degrees",
]

VARIANTS = ("A", "B", "C")


def space_degrees(variant: str, k: int):
    """(cell degree, trace degree, normal degree) of a variant."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if k < 0:
        raise ConfigError("polynomial degree k must be nonnegative")
    if variant == "B":
        return k + 2, k + 2, k
    if variant == "C":
        return k + 1, k + 1, k
    return k + 2, k + 1, k


@dataclass(frozen=True)
class LocalDofLayout:
    """Block layout of the local unknown vector of one cell."""
    variant: str
    k: int
    nitsche: bool
    cell_dim: int
    trace_dims: tuple
    normal_dims: tuple

    @property
    def n_faces(self):
        return len(self.trace_dims)

    @property
    def n_total(self):
        return self.cell_dim + sum(self.trace_dims) + sum(self.normal_dims)

    @property
    def cell_slice(self):
        return slice(0, self.cell_dim)

    def trace_slice(self, a: int) -> slice:
        start = self.cell_dim + sum(self.trace_dims[:a])
        return slice(start, start + self.trace_dims[a])

    def normal_slice(self, a: int) -> slice:
        start = self.cell_dim + sum(self.trace_dims) + sum(self.normal_dims[:a])
        return slice(start, start + self.normal_dims[a])


def make_layout(mesh: Mesh, cell_id, variant: str, k: int,
                nitsche: bool = False) -> LocalDofLayout:
    """Layout of one cell, or the common layout of a stack of cells."""
    if nitsche and variant == "C":
        raise ConfigError("the Nitsche mode is only available for variants A and B")
    cell_deg, trace_deg, normal_deg = space_degrees(variant, k)
    bare = nitsche & mesh.is_boundary_face[mesh.cell_rows(cell_id).faces]
    bare = bare.reshape(-1, bare.shape[-1])
    if np.any(bare != bare[0]):
        raise ConfigError("the cells of a stack must share their layout")
    bare = bare[0]
    return LocalDofLayout(variant, k, nitsche, space_dim(cell_deg),
                          tuple(np.where(bare, 0, trace_deg + 1).tolist()),
                          tuple(np.where(bare, 0, normal_deg + 1).tolist()))


@dataclass
class LocalOperators:
    """All per-cell matrices of the method (see the module docstring); for a
    stack of cells, with a leading cell axis on every array and basis."""
    cell_id: object                   # int, or an array of cells
    layout: LocalDofLayout
    rec_basis: CellBasis
    R: np.ndarray                     # (rec_dim, n) reconstruction coefficients
    G: np.ndarray                     # Hessian Gram matrix on P^{k+2}(K)
    S: np.ndarray                     # stabilization
    A: np.ndarray                     # R^T G R + S
    lifting: Optional[np.ndarray] = None        # boundary-data lifting (Nitsche)
    load_boundary: Optional[np.ndarray] = None  # boundary data terms of the rhs


class _CellWork:
    """Quadrature tables and factorizations shared by all builders of a cell.

    Every face table carries a face axis, faces in loop order, and is built
    in one pass over the cell's faces; the builders are stacked expressions
    over that axis.  `active` indexes the faces that carry unknowns (all of
    them, except the boundary faces in Nitsche mode), and the face bases and
    projections (`Psi`, `dPsi`, `Mf`, `T2`, `PN`) exist on those only;
    `boundary` indexes the others.  Stacked face terms are summed over the
    face axis, which adds them in loop order, so every operator has the bits
    of a face-by-face sum.

    `cell_id` is one cell, or an array of the ids of cells of a `Mesh` or a
    `CellShape` that share the vertex count, the sub-triangle count and the
    layout (see `shape_batches`).  An array puts a leading cell axis in front
    of every table and operator: the builders are written on (..., n, n)
    stacks, so one cell keeps its shapes, and each cell of a stack has the
    bits of the same cell built alone.
    """

    def __init__(self, mesh, cell_id, variant, k, nitsche=False):
        self.variant = variant
        self.k = k
        self.nitsche = nitsche
        self.layout = make_layout(mesh, cell_id, variant, k, nitsche)
        self.h = np.asarray(mesh.cell_diameter[cell_id])

        self.rec_basis = CellBasis.for_cell(mesh, cell_id, k + 2)
        self.rec_dim = self.rec_basis.dim
        self.cell_dim = self.layout.cell_dim

        crule = cell_rule(mesh, cell_id, cell_degree(k))
        w = crule.weights[..., None]
        orders = [(0, 0), (2, 0), (1, 1), (0, 2)]
        if k >= 2:
            orders += [(4, 0), (2, 2), (0, 4)]
        tab = self.rec_basis.tables(crule.points, orders)
        V = tab[(0, 0)]
        Hxx, Hxy, Hyy = tab[(2, 0)], tab[(1, 1)], tab[(0, 2)]
        self.M_rec = self._sym(tr(V) @ (w * V))
        self.G = self._sym(tr(Hxx) @ (w * Hxx)
                           + 2.0 * tr(Hxy) @ (w * Hxy)
                           + tr(Hyy) @ (w * Hyy))
        if k >= 2:
            L2 = tab[(4, 0)] + 2.0 * tab[(2, 2)] + tab[(0, 4)]
            self.B_bilap = tr(L2) @ (w * V[..., :self.cell_dim])
        else:
            self.B_bilap = np.zeros(self.h.shape
                                    + (self.rec_dim, self.cell_dim))

        # Bordered Hessian system: 3 Lagrange rows pin the affine moments.
        r = self.rec_dim
        M3 = self.M_rec[..., :3, :]
        self.saddle = np.zeros(self.h.shape + (r + 3, r + 3))
        self.saddle[..., :r, :r] = self.G
        self.saddle[..., :r, r:] = tr(M3)
        self.saddle[..., r:, :r] = M3

        self.mesh = mesh
        self.faces, signs, _ = mesh.cell_rows(cell_id)
        self.active = np.flatnonzero(self.layout.trace_dims)
        self.boundary = np.flatnonzero(np.equal(self.layout.trace_dims, 0))
        # Width of an active face's trace and normal blocks; the normal
        # blocks start after all trace blocks.
        _, trace_deg, normal_deg = space_degrees(variant, k)
        self.td, self.nd = trace_deg + 1, normal_deg + 1
        self.n0 = self.cell_dim + sum(self.layout.trace_dims)
        # The cell block of the local vector as a map into P^{k+2}(K).
        self.embed = np.zeros((self.rec_dim, self.layout.n_total))
        self.embed[:self.cell_dim, :self.cell_dim] = np.eye(self.cell_dim)
        rule = face_rule(mesh, self.faces, face_degree(k))
        self.w = rule.weights
        self.n = signs[..., None] * mesh.face_normal[self.faces]
        self.t = mesh.face_tangent[self.faces]

        # The third orders feed d_n(Laplacian), which vanishes on P^2 (k = 0).
        tab = self._rec_tables(rule.points,
                               FACE_ORDERS_3 if k >= 1 else FACE_ORDERS_2)
        self.V = tab[(0, 0)]
        self.Dn, self.Dt, self.Dnn, self.Dnt, self.DnLap = face_derivatives(
            tab, *_frame(self.n, self.t))

        # Face bases and coefficients of cell-polynomial traces, on the
        # active faces.
        a = self.active
        pts, wa = rule.points[..., a, :, :], self.w[..., a, :]
        fb = FaceBasis.for_face(mesh, self.faces[..., a], k + 2)
        self.Psi = fb.eval(pts)
        self.dPsi = fb.eval(pts, 1)
        self.Mf = self._sym(_wdot(self.Psi, wa, self.Psi))
        self.T2 = sla.solve(self.Mf, _wdot(self.Psi, wa, self.V[..., a, :, :]),
                            assume_a="pos")
        self.PN = sla.solve(self.Mf[..., :k + 1, :k + 1],
                            _wdot(self.Psi[..., :k + 1], wa,
                                  self.Dn[..., a, :, :]),
                            assume_a="pos")

    @staticmethod
    def _sym(M):
        return 0.5 * (M + tr(M))

    def _h(self, p, nd):
        """h^p of each cell, shaped to scale items of `nd` axes.  C `pow`,
        as on a scalar, for the same bits."""
        hp = np.float_power(self.h, p)
        return hp.reshape(hp.shape + (1,) * nd)

    def saddle_solve(self, rhs, moments=None):
        """Solve the bordered Hessian system for a block of right-hand sides,
        one per column."""
        r = self.rec_dim
        full = np.zeros(self.saddle.shape[:-2] + (r + 3, rhs.shape[-1]))
        full[..., :r, :] = rhs
        if moments is not None:
            full[..., r:, :] = moments
        return by_columns(sla.solve(self.saddle, full,
                                     assume_a="gen"))[..., :r, :]

    def _rec_tables(self, pts, orders):
        """`rec_basis.tables` at stacked (..., nF, nq, 2) points, as
        (..., nF, nq, .)."""
        tab = self.rec_basis.tables(pts.reshape(pts.shape[:-3] + (-1, 2)),
                                    orders)
        return {key: T.reshape(pts.shape[:-1] + (self.rec_dim,))
                for key, T in tab.items()}

    # -- reconstruction -------------------------------------------------------

    def reconstruction_rhs(self, path="ipp"):
        lay = self.layout
        nc = self.cell_dim
        B = np.zeros(self.h.shape + (self.rec_dim, lay.n_total))
        if path == "ipp":
            B[..., :nc] = self.B_bilap
        elif path == "variational":
            w = self.w
            blk = -_wdot(self.Dnn, w, self.Dn[..., :nc])
            blk -= _wdot(self.Dnt, w, self.Dt[..., :nc])
            if self.DnLap is not None:
                blk += _wdot(self.DnLap, w, self.V[..., :nc])
            B[..., :nc] = _loop_sum(self.G[..., :nc], blk)
        else:
            raise ValueError(f"unknown reconstruction path {path!r}")
        a, td = self.active, self.td
        w = self.w[..., a, :]
        trace = _wdot(self.Dnt[..., a, :, :], w, self.dPsi[..., :td])
        if self.DnLap is not None:
            trace -= _wdot(self.DnLap[..., a, :, :], w, self.Psi[..., :td])
        normal = _wdot(self.Dnn[..., a, :, :], w, self.Psi[..., :self.nd])
        B[..., nc:self.n0] = _side_by_side(trace)
        B[..., self.n0:] = _side_by_side(normal)
        return B

    def reconstruction(self, path="ipp"):
        B = self.reconstruction_rhs(path)
        moments = np.zeros(B.shape[:-2] + (3, self.layout.n_total))
        moments[..., self.layout.cell_slice] = self.M_rec[..., :3,
                                                          :self.cell_dim]
        return self.saddle_solve(B, moments)

    # -- stabilization --------------------------------------------------------

    def stabilization(self, scaling, R=None):
        lay = self.layout
        n = lay.n_total
        k, nc = self.k, self.cell_dim
        fac_low, fac_hm1 = stab_factors(scaling, k)
        td, nd = self.td, self.nd

        first = np.zeros((n, n))
        Z = self.embed
        if self.variant == "C":   # penalize against the reconstruction
            if R is None:
                R = self.reconstruction()
            M = self.M_rec[..., :nc, :nc]
            Pc = sla.solve(M, self.M_rec[..., :nc, :], assume_a="pos")
            rho0 = -Pc @ R
            rho0[..., lay.cell_slice] += np.eye(nc)
            first = first + fac_low * self._h(-4, 2) * tr(rho0) @ M @ rho0
            Z = R

        # Variant B penalizes plain L^2 traces; A and C the canonical
        # interpolation J onto P^{k+1} of each face.
        T2 = self.T2
        if self.variant != "B":
            T2 = reference_interp_matrix(k, k + 2) @ T2
        Z = Z[..., None, :, :]
        rho1 = _put_eye(-T2 @ Z, nc, td)
        rho2 = _put_eye(-self.PN @ Z, self.n0, nd)
        S = _loop_sum(first,
                      _gram(rho1, fac_low * self._h(-3, 3),
                            self.Mf[..., :td, :td]),
                      _gram(rho2, fac_hm1 * self._h(-1, 3),
                            self.Mf[..., :nd, :nd]))

        if self.nitsche:
            S[..., lay.cell_slice, lay.cell_slice] += self.boundary_penalty(
                fac_low * self._h(-3, 3), fac_hm1 * self._h(-1, 3))
        return self._sym(S)

    def boundary_penalty(self, w_val, w_grad):
        """Penalty Gram w_val (v, w)_dKb + w_grad (grad v, grad w)_dKb, cell
        block; the weights scale the (..., nF, nq, nc) face tables."""
        nc = self.cell_dim
        b = self.boundary
        V, Dn, Dt = (T[..., b, :, :nc] for T in (self.V, self.Dn, self.Dt))
        w = self.w[..., b, :]
        P = _loop_sum(np.zeros((nc, nc)),
                      _wdot(w_val * V, w, V),
                      w_grad * (_wdot(Dn, w, Dn) + _wdot(Dt, w, Dt)))
        return self._sym(P)

    # -- energy seminorm Gram ---------------------------------------------------

    def seminorm_gram(self):
        lay = self.layout
        n = lay.n_total
        k, nc = self.k, self.cell_dim
        first = np.zeros(self.h.shape + (n, n))
        first[..., :nc, :nc] = self.G[..., :nc, :nc]

        m1 = k + 2   # dim P^{k+1}(F)
        a = self.active
        N1 = sla.solve(self.Mf[..., :m1, :m1],
                       _wdot(self.Psi[..., :m1], self.w[..., a, :],
                             self.Dn[..., a, :, :]),
                       assume_a="pos")
        rho = _put_eye(-self.T2 @ self.embed, nc, self.td)
        rho_n = _put_eye(-N1 @ self.embed, self.n0, self.nd)
        N = _loop_sum(first, _gram(rho, self._h(-3, 3), self.Mf),
                      _gram(rho_n, self._h(-1, 3), self.Mf[..., :m1, :m1]))
        if self.nitsche:
            N[..., lay.cell_slice, lay.cell_slice] += self.boundary_penalty(
                self._h(-3, 3), self._h(-1, 3))
        return self._sym(N)

    # -- boundary data (Nitsche) -------------------------------------------------

    def _nitsche_terms(self, bdata, scaling):
        """One pass over the boundary faces: lifting rhs, lifting, penalty load.

        The lifting right-hand side is -(g_D, dn Lap w) + (G, grad dn w); the
        load holds the boundary penalty tested against the cell unknown.  The
        data are sampled once, on the points of all boundary faces together,
        cell by cell in a stack.
        """
        fac_low, fac_hm1 = stab_factors(scaling, self.k)
        nc = self.cell_dim
        b = self.boundary
        rule = face_rule(self.mesh, self.faces[..., b],
                         face_degree(self.k) + BC_EXTRA_DEGREE)
        pts, w = rule.points, rule.weights
        n, t = self.n[..., b, :], self.t[..., b, :]
        tab = self._rec_tables(pts, FACE_ORDERS_3)
        Dn, Dt, Dnn, Dnt, DnLap = face_derivatives(tab, *_frame(n, t))
        flat = pts.reshape(-1, 2)
        gD = np.asarray(bdata.dirichlet(flat), dtype=np.float64).reshape(w.shape)
        grad = bdata.boundary_gradient(flat).reshape(pts.shape)
        gN = (grad @ n[..., None])[..., 0]
        dtg = (grad @ t[..., None])[..., 0]

        def tested(T, g):
            """Face integrals of the table T against g, as columns."""
            return _wdot(T, w, g[..., None])

        rhs = _loop_sum(np.zeros((self.rec_dim, 1)),
                        tested(Dnn, gN) + tested(Dnt, dtg), -tested(DnLap, gD))
        load = np.zeros(rhs.shape[:-2] + (self.layout.n_total,))
        load[..., :nc] = _loop_sum(
            np.zeros((nc, 1)),
            tested(fac_low * self._h(-3, 3) * tab[(0, 0)][..., :nc], gD)
            + fac_hm1 * self._h(-1, 3) * (tested(Dn[..., :nc], gN)
                                          + tested(Dt[..., :nc], dtg)))[..., 0]
        lifting = self.saddle_solve(rhs)[..., 0]
        return rhs[..., 0], lifting, load

    def nitsche_data(self, bdata, scaling, R):
        """Lifting coefficients and the boundary part of the local load vector."""
        rhs_lift, lifting, load = self._nitsche_terms(bdata, scaling)
        return lifting, load - _apply(tr(R), rhs_lift)

    def nitsche_load_two_path(self, bdata, scaling, R):
        """Data terms of the load assembled through the lifting (cross-check path)."""
        _, lifting, load = self._nitsche_terms(bdata, scaling)
        return load - _apply(tr(R), _apply(self.G, lifting))


def _apply(M, v):
    """M v for (..., r, c) matrices and (..., c) vectors, one per matrix."""
    return (M @ v[..., None])[..., 0]


def _frame(n, t):
    """Unit normals and tangents (..., nF, 2) as the (2, ..., nF, 1, 1)
    components that `face_derivatives` takes for stacked face tables."""
    return (np.moveaxis(n, -1, 0)[..., None, None],
            np.moveaxis(t, -1, 0)[..., None, None])


def _side_by_side(X):
    """(..., nF, r, d) face blocks laid side by side in loop order, as
    (..., r, nF * d)."""
    return X.swapaxes(-3, -2).reshape(X.shape[:-3] + (X.shape[-2], -1))


def _wdot(X, w, Y):
    """Face integrals X^T (w Y) of stacked (..., nF, nq, .) tables, one per
    face."""
    return tr(X) @ (w[..., None] * Y)


def _gram(rho, weight, M):
    """Face penalty Grams (weight rho^T) M rho, one per face."""
    return (weight * tr(rho)) @ M @ rho


def _put_eye(rho, start, dim):
    """Add to each face's rho the identity on its own block: face i owns the
    `dim` columns from start + i * dim."""
    i = np.arange(rho.shape[-3])[:, None]
    j = np.arange(dim)
    rho[..., i, j, start + i * dim + j] += 1.0
    return rho


def _loop_sum(first, *stacks):
    """first + the stacks' face terms, added face by face in loop order (for
    each face, one term of each stack).  The stacks are (..., nF, r, c), and
    first is (r, c) or (..., r, c).  numpy sums a contiguous stack over an
    axis that is not the last sequentially, so this has the bits of the same
    sum in a loop."""
    lead, ns = stacks[0].shape[:-2], len(stacks)
    terms = np.empty(lead[:-1] + (1 + lead[-1] * ns,) + first.shape[-2:])
    terms[..., 0, :, :] = first
    for i, stack in enumerate(stacks):
        terms[..., 1 + i::ns, :, :] = stack
    return terms.sum(axis=-3)


def _kernel_dim(A, tol=1e-12):
    # Jacobi equilibration is a congruence, so it preserves the kernel
    # dimension while removing the block-scale disparity of the raw
    # coefficient-space matrix.  After scaling, kernel eigenvalues sit at
    # roundoff (< 1e-15 relative) and the smallest physical eigenvalue stays
    # above ~1e-9 relative up to k = 5, so a mid-gap threshold is reliable.
    d = 1.0 / np.sqrt(np.maximum(np.diag(A), 1e-300))
    ev = sla.eigvalsh(A * np.outer(d, d))
    return int(np.sum(ev < tol * max(ev.max(), 1e-300)))


def build_reconstruction(mesh, cell_id, variant="A", k=1, nitsche=False,
                         path="ipp") -> np.ndarray:
    """Reconstruction matrix of one cell: local dofs -> P^{k+2}(K) coefficients.

    `path` selects the assembly route: "ipp" applies integration by parts to
    put all derivatives on the test function (the cheap default), while
    "variational" assembles the Hessian problem directly.  Both produce the
    same matrix and are cross-checked in the tests.
    """
    work = _CellWork(mesh, cell_id, variant, k, nitsche)
    return work.reconstruction(path)


def build_stabilization(mesh, cell_id, variant="A", k=1, scaling="k2-all",
                        nitsche=False) -> np.ndarray:
    work = _CellWork(mesh, cell_id, variant, k, nitsche)
    return work.stabilization(scaling)


def build_seminorm_gram(mesh, cell_id, variant="A", k=1,
                        nitsche=False) -> np.ndarray:
    """Gram matrix of the local energy seminorm (see `local_seminorm`)."""
    work = _CellWork(mesh, cell_id, variant, k, nitsche)
    return work.seminorm_gram()


def build_local_matrices(mesh, cell_id, variant="A", k=1, scaling="k2-all",
                         nitsche=False, bdata=None,
                         check_kernel=True) -> LocalOperators:
    """Build all local matrices of one cell, or of a stack of cells of one
    vertex count (see `_CellWork`), stacked along a leading cell axis.

    With `check_kernel`, verifies that ker(A) has dimension exactly 3 (the
    affine modes), or 0 on Nitsche cells touching the boundary; a mismatch
    signals a quadrature or orientation-sign defect and raises AssemblyError.
    """
    work = _CellWork(mesh, cell_id, variant, k, nitsche)
    R = work.reconstruction()
    S = work.stabilization(scaling, R=R)
    A = work._sym(tr(R) @ work.G @ R + S)

    lifting = None
    load_boundary = None
    if nitsche:
        if bdata is not None and len(work.boundary):
            lifting, load_boundary = work.nitsche_data(bdata, scaling, R)
        else:
            lifting = np.zeros(work.h.shape + (work.rec_dim,))
            load_boundary = np.zeros(work.h.shape + (work.layout.n_total,))

    if check_kernel:
        expected = 0 if (nitsche and len(work.boundary)) else 3
        n = work.layout.n_total
        for c, Ac in zip(np.ravel(cell_id), A.reshape(-1, n, n)):
            got = _kernel_dim(Ac)
            if got != expected:
                raise AssemblyError(
                    f"cell {c}: local form has kernel dimension {got}, "
                    f"expected {expected} (variant {variant}, k={k})")

    return LocalOperators(cell_id=cell_id, layout=work.layout,
                          rec_basis=work.rec_basis, R=R, G=work.G, S=S, A=A,
                          lifting=lifting, load_boundary=load_boundary)


def reduce_face(mesh, f, u, dn_u, variant, k, rule):
    """Trace and normal-derivative unknowns of face f, in its stored orientation.

    The trace is the L^2 projection of u onto P^{k+2}(F) (variant B) or its
    canonical hybrid interpolation onto P^{k+1}(F) (variants A, C); the normal
    block is the L^2 projection of dn_u = n_F . grad u onto P^k(F).
    """
    _, trace_deg, normal_deg = space_degrees(variant, k)
    tb = FaceBasis.for_face(mesh, f, trace_deg)
    if variant == "B":
        tr = project_face(u, tb, rule).coeffs
    else:
        tr = canonical_interp_face(u, k, tb, rule).coeffs
    nb = FaceBasis.for_face(mesh, f, normal_deg)
    return tr, project_face(dn_u, nb, rule).coeffs


def reduce_cell(mesh, cell_id, u, grad, variant="A", k=1,
                nitsche=False) -> np.ndarray:
    """Reduction of a smooth function onto the local unknown triple.

    The cell block is the L^2 projection; the face blocks come from
    `reduce_face`, with the normal blocks signed into the cell-local view.
    """
    layout = make_layout(mesh, cell_id, variant, k, nitsche)
    out = np.zeros(layout.n_total)

    crule = cell_rule(mesh, cell_id, cell_degree(k) + DATA_EXTRA_DEGREE)
    cb = CellBasis.for_cell(mesh, cell_id, space_degrees(variant, k)[0])
    out[layout.cell_slice] = project_cell(u, cb, crule).coeffs

    fdeg = face_degree(k) + DATA_EXTRA_DEGREE
    for a, f in enumerate(mesh.cell_faces[cell_id]):
        if layout.trace_dims[a] == 0:
            continue
        n_F = mesh.face_normal[f]
        tr, gamma = reduce_face(mesh, f, u, lambda p: np.asarray(grad(p)) @ n_F,
                                variant, k, face_rule(mesh, f, fdeg))
        out[layout.trace_slice(a)] = tr
        out[layout.normal_slice(a)] = mesh.cell_signs[cell_id][a] * gamma
    return out


def elliptic_projection_oracle(u, hess, mesh, cell_id, k) -> PolyCoeffs:
    """Best approximation in the Hessian energy with affine-moment closure.

    Solves (hess(E u - u), hess w)_K = 0 for all w in P^{k+2}(K) together
    with (E u - u, xi)_K = 0 for affine xi, as one bordered dense system.
    Test oracle; the solver path never calls this.
    """
    work = _CellWork(mesh, cell_id, "A", k)
    crule = cell_rule(mesh, cell_id, cell_degree(k) + DATA_EXTRA_DEGREE)
    b = work.rec_basis
    w = crule.weights
    H = np.asarray(hess(crule.points), dtype=np.float64)
    rhs = (b.eval(crule.points, 2, 0).T @ (w * H[:, 0])
           + 2.0 * b.eval(crule.points, 1, 1).T @ (w * H[:, 1])
           + b.eval(crule.points, 0, 2).T @ (w * H[:, 2]))
    vals = np.asarray(u(crule.points), dtype=np.float64)
    moments = b.eval(crule.points)[:, :3].T @ (w * vals)
    coeffs = work.saddle_solve(rhs[:, None], moments[:, None])[:, 0]
    return PolyCoeffs(b, coeffs)


def local_seminorm(N: np.ndarray, vhat) -> float:
    """Energy seminorm |v|: Hessian of the cell part plus scaled face mismatches.

    `N` is the Gram matrix from `build_seminorm_gram`.
    """
    vhat = np.asarray(vhat, dtype=np.float64)
    return float(np.sqrt(max(vhat @ N @ vhat, 0.0)))


def rigid_modes(mesh, cell_id, layout: LocalDofLayout) -> np.ndarray:
    """Exact local vectors of the affine modes (the kernel of A and N)."""
    h = mesh.cell_diameter[cell_id]
    cen = mesh.cell_centroid[cell_id]
    grads = np.array([[0.0, 0.0], [1.0 / h, 0.0], [0.0, 1.0 / h]])
    modes = np.zeros((3, layout.n_total))
    for m in range(3):
        modes[m, layout.cell_slice.start + m] = 1.0
        g = grads[m]
        for a, f in enumerate(mesh.cell_faces[cell_id]):
            if layout.trace_dims[a] == 0:
                continue
            mid = mesh.face_midpoint[f]
            t = mesh.face_tangent[f]
            hF = mesh.face_length[f]
            if m == 0:
                val_mid, slope = 1.0, 0.0
            else:
                val_mid = (mid[m - 1] - cen[m - 1]) / h
                slope = hF * t[m - 1] / h
            sl = layout.trace_slice(a)
            modes[m, sl.start] = val_mid
            if layout.trace_dims[a] > 1:
                modes[m, sl.start + 1] = slope
            n_out = mesh.outward_normal(cell_id, f)
            modes[m, layout.normal_slice(a).start] = n_out @ g
    return modes
