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
the loop frame of the class shape.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla

from .common import AssemblyError, ConfigError, stab_factors
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


def make_layout(mesh: Mesh, cell_id: int, variant: str, k: int,
                nitsche: bool = False) -> LocalDofLayout:
    if nitsche and variant == "C":
        raise ConfigError("the Nitsche mode is only available for variants A and B")
    cell_deg, trace_deg, normal_deg = space_degrees(variant, k)
    faces = mesh.cell_faces[cell_id]
    td, nd = [], []
    for f in faces:
        if nitsche and mesh.is_boundary_face[f]:
            td.append(0)
            nd.append(0)
        else:
            td.append(trace_deg + 1)
            nd.append(normal_deg + 1)
    return LocalDofLayout(variant, k, nitsche, space_dim(cell_deg),
                          tuple(td), tuple(nd))


@dataclass
class LocalOperators:
    """All per-cell matrices of the method (see the module docstring)."""
    cell_id: int
    layout: LocalDofLayout
    rec_basis: CellBasis
    R: np.ndarray                     # (rec_dim, n) reconstruction coefficients
    G: np.ndarray                     # Hessian Gram matrix on P^{k+2}(K)
    S: np.ndarray                     # stabilization
    A: np.ndarray                     # R^T G R + S
    lifting: Optional[np.ndarray] = None        # boundary-data lifting (Nitsche)
    load_boundary: Optional[np.ndarray] = None  # boundary data terms of the rhs


class _CellWork:
    """Quadrature tables and factorizations shared by all builders of a cell."""

    def __init__(self, mesh, cell_id, variant, k, nitsche=False):
        self.mesh = mesh
        self.cell_id = cell_id
        self.variant = variant
        self.k = k
        self.nitsche = nitsche
        self.layout = make_layout(mesh, cell_id, variant, k, nitsche)
        self.h = mesh.cell_diameter[cell_id]
        self.faces = mesh.cell_faces[cell_id]
        self.signs = mesh.cell_signs[cell_id]
        cell_deg, self.trace_deg, self.normal_deg = space_degrees(variant, k)
        self.cell_deg = cell_deg

        self.rec_basis = CellBasis.for_cell(mesh, cell_id, k + 2)
        self.rec_dim = self.rec_basis.dim
        self.cell_dim = self.layout.cell_dim

        crule = cell_rule(mesh, cell_id, cell_degree(k))
        w = crule.weights
        orders = [(0, 0), (2, 0), (1, 1), (0, 2)]
        if k >= 2:
            orders += [(4, 0), (2, 2), (0, 4)]
        tab = self.rec_basis.tables(crule.points, orders)
        V = tab[(0, 0)]
        Hxx, Hxy, Hyy = tab[(2, 0)], tab[(1, 1)], tab[(0, 2)]
        self.M_rec = self._sym(V.T @ (w[:, None] * V))
        self.G = self._sym(Hxx.T @ (w[:, None] * Hxx)
                           + 2.0 * Hxy.T @ (w[:, None] * Hxy)
                           + Hyy.T @ (w[:, None] * Hyy))
        if k >= 2:
            L2 = tab[(4, 0)] + 2.0 * tab[(2, 2)] + tab[(0, 4)]
            self.B_bilap = L2.T @ (w[:, None] * V[:, :self.cell_dim])
        else:
            self.B_bilap = np.zeros((self.rec_dim, self.cell_dim))

        # Bordered Hessian system: 3 Lagrange rows pin the affine moments.
        M3 = self.M_rec[:3, :]
        K = np.zeros((self.rec_dim + 3, self.rec_dim + 3))
        K[:self.rec_dim, :self.rec_dim] = self.G
        K[:self.rec_dim, self.rec_dim:] = M3.T
        K[self.rec_dim:, :self.rec_dim] = M3
        self.saddle = sla.lu_factor(K)

        self._faces = [self._face_tables(a) for a in range(len(self.faces))]

    @staticmethod
    def _sym(M):
        return 0.5 * (M + M.T)

    def saddle_solve(self, rhs, moments=None):
        """Solve the bordered Hessian system for one or many right-hand sides."""
        rhs = np.atleast_2d(rhs.T).T if rhs.ndim == 1 else rhs
        ncol = rhs.shape[1]
        full = np.zeros((self.rec_dim + 3, ncol))
        full[:self.rec_dim] = rhs
        if moments is not None:
            full[self.rec_dim:] = moments
        sol = sla.lu_solve(self.saddle, full)
        return sol[:self.rec_dim]

    def _face_tables(self, a):
        mesh, k = self.mesh, self.k
        f = self.faces[a]
        sgn = self.signs[a]
        rule = face_rule(mesh, f, face_degree(k))
        w = rule.weights
        n_out = sgn * mesh.face_normal[f]
        t = mesh.face_tangent[f]
        fb = FaceBasis.for_face(mesh, f, k + 2)
        Psi = fb.eval(rule.points)
        dPsi = fb.eval(rule.points, 1)
        Mf = self._sym(Psi.T @ (w[:, None] * Psi))

        # The third orders feed d_n(Laplacian), which vanishes on P^2 (k = 0).
        tab = self.rec_basis.tables(rule.points,
                                    FACE_ORDERS_3 if k >= 1 else FACE_ORDERS_2)
        V = tab[(0, 0)]
        Dn, Dt, Dnn, Dnt, DnLap = face_derivatives(tab, n_out, t)

        # Coefficients on the face of cell-polynomial traces.
        T2 = sla.solve(Mf, Psi.T @ (w[:, None] * V), assume_a="pos")
        PN = sla.solve(Mf[:k + 1, :k + 1], Psi[:, :k + 1].T @ (w[:, None] * Dn),
                       assume_a="pos")
        # Variant B penalizes plain L^2 traces and never reads J.
        J = None if self.variant == "B" else reference_interp_matrix(k, fb.degree)

        return dict(face=f, w=w, n=n_out, t=t, Psi=Psi, dPsi=dPsi, Mf=Mf,
                    V=V, Dn=Dn, Dt=Dt, Dnn=Dnn, Dnt=Dnt, DnLap=DnLap, T2=T2,
                    PN=PN, J=J, boundary=bool(self.mesh.is_boundary_face[f]))

    def _active(self, a):
        """Whether face a carries unknowns (always, except Nitsche boundary faces)."""
        return self.layout.trace_dims[a] > 0

    # -- reconstruction -------------------------------------------------------

    def reconstruction_rhs(self, path="ipp"):
        lay = self.layout
        n = lay.n_total
        B = np.zeros((self.rec_dim, n))
        if path == "ipp":
            B[:, lay.cell_slice] = self.B_bilap
        elif path == "variational":
            B[:, lay.cell_slice] = self.G[:, :self.cell_dim]
            for ft in self._faces:
                w = ft["w"]
                Vc = ft["V"][:, :self.cell_dim]
                blk = -(ft["Dnn"].T @ (w[:, None] * ft["Dn"][:, :self.cell_dim]))
                blk -= ft["Dnt"].T @ (w[:, None] * ft["Dt"][:, :self.cell_dim])
                if ft["DnLap"] is not None:
                    blk += ft["DnLap"].T @ (w[:, None] * Vc)
                B[:, lay.cell_slice] += blk
        else:
            raise ValueError(f"unknown reconstruction path {path!r}")
        for a, ft in enumerate(self._faces):
            if not self._active(a):
                continue
            w = ft["w"]
            td = lay.trace_dims[a]
            nd = lay.normal_dims[a]
            tr = ft["Dnt"].T @ (w[:, None] * ft["dPsi"][:, :td])
            if ft["DnLap"] is not None:
                tr -= ft["DnLap"].T @ (w[:, None] * ft["Psi"][:, :td])
            B[:, lay.trace_slice(a)] = tr
            B[:, lay.normal_slice(a)] = ft["Dnn"].T @ (w[:, None] * ft["Psi"][:, :nd])
        return B

    def reconstruction(self, path="ipp"):
        B = self.reconstruction_rhs(path)
        moments = np.zeros((3, self.layout.n_total))
        moments[:, self.layout.cell_slice] = self.M_rec[:3, :self.cell_dim]
        return self.saddle_solve(B, moments)

    # -- stabilization --------------------------------------------------------

    def stabilization(self, scaling, R=None):
        lay = self.layout
        n = lay.n_total
        k = self.k
        fac_low, fac_hm1 = stab_factors(scaling, k)
        h = self.h
        S = np.zeros((n, n))

        if self.variant == "C":
            if R is None:
                R = self.reconstruction()
            nc = self.cell_dim
            Pc = sla.solve(self.M_rec[:nc, :nc], self.M_rec[:nc, :],
                           assume_a="pos")
            rho0 = -Pc @ R
            rho0[:, lay.cell_slice] += np.eye(nc)
            S += fac_low * h ** -4 * rho0.T @ self.M_rec[:nc, :nc] @ rho0

        for a, ft in enumerate(self._faces):
            if not self._active(a):
                continue
            Mf = ft["Mf"]
            m1 = k + 2
            if self.variant == "A":
                rho1 = np.zeros((m1, n))
                rho1[:, lay.cell_slice] = -(ft["J"] @ ft["T2"])[:, :self.cell_dim]
                rho1[:, lay.trace_slice(a)] = np.eye(m1)
                S += fac_low * h ** -3 * rho1.T @ Mf[:m1, :m1] @ rho1
            elif self.variant == "B":
                m2 = k + 3
                rho1 = np.zeros((m2, n))
                rho1[:, lay.cell_slice] = -ft["T2"][:, :self.cell_dim]
                rho1[:, lay.trace_slice(a)] = np.eye(m2)
                S += fac_low * h ** -3 * rho1.T @ Mf @ rho1
            else:  # variant C: penalize against the reconstruction
                rho1 = -ft["J"] @ ft["T2"] @ R
                rho1[:, lay.trace_slice(a)] += np.eye(m1)
                S += fac_low * h ** -3 * rho1.T @ Mf[:m1, :m1] @ rho1

            if self.variant == "C":
                rho2 = -ft["PN"] @ R
                rho2[:, lay.normal_slice(a)] += np.eye(k + 1)
            else:
                rho2 = np.zeros((k + 1, n))
                rho2[:, lay.cell_slice] = -ft["PN"][:, :self.cell_dim]
                rho2[:, lay.normal_slice(a)] = np.eye(k + 1)
            S += fac_hm1 * h ** -1 * rho2.T @ Mf[:k + 1, :k + 1] @ rho2

        if self.nitsche:
            S[lay.cell_slice, lay.cell_slice] += self.boundary_penalty(
                fac_low * h ** -3, fac_hm1 * h ** -1)
        return self._sym(S)

    def boundary_penalty(self, w_val, w_grad):
        """Penalty Gram w_val (v, w)_dKb + w_grad (grad v, grad w)_dKb, cell block."""
        nc = self.cell_dim
        P = np.zeros((nc, nc))
        for a, ft in enumerate(self._faces):
            if not ft["boundary"]:
                continue
            w = ft["w"]
            V = ft["V"][:, :nc]
            Dn = ft["Dn"][:, :nc]
            Dt = ft["Dt"][:, :nc]
            P += w_val * V.T @ (w[:, None] * V)
            P += w_grad * (Dn.T @ (w[:, None] * Dn) + Dt.T @ (w[:, None] * Dt))
        return self._sym(P)

    # -- energy seminorm Gram ---------------------------------------------------

    def seminorm_gram(self):
        lay = self.layout
        n = lay.n_total
        k = self.k
        h = self.h
        N = np.zeros((n, n))
        N[lay.cell_slice, lay.cell_slice] = self.G[:self.cell_dim, :self.cell_dim]
        for a, ft in enumerate(self._faces):
            if not self._active(a):
                continue
            Mf = ft["Mf"]
            td = lay.trace_dims[a]
            rho = np.zeros((k + 3, n))
            rho[:, lay.cell_slice] = -ft["T2"][:, :self.cell_dim]
            rho[:td, lay.trace_slice(a)] = np.eye(td)
            N += h ** -3 * rho.T @ Mf @ rho

            m1 = k + 2   # dim P^{k+1}(F)
            N1 = sla.solve(Mf[:m1, :m1],
                           ft["Psi"][:, :m1].T @ (ft["w"][:, None] * ft["Dn"]),
                           assume_a="pos")
            rho = np.zeros((m1, n))
            rho[:, lay.cell_slice] = -N1[:, :self.cell_dim]
            rho[:k + 1, lay.normal_slice(a)] = np.eye(k + 1)
            N += h ** -1 * rho.T @ Mf[:k + 2, :k + 2] @ rho
        if self.nitsche:
            N[lay.cell_slice, lay.cell_slice] += self.boundary_penalty(
                h ** -3, h ** -1)
        return self._sym(N)

    # -- boundary data (Nitsche) -------------------------------------------------

    def _nitsche_terms(self, bdata, scaling):
        """One pass over the boundary faces: lifting rhs, lifting, penalty load.

        The lifting right-hand side is -(g_D, dn Lap w) + (G, grad dn w); the
        load holds the boundary penalty tested against the cell unknown.
        """
        fac_low, fac_hm1 = stab_factors(scaling, self.k)
        h, nc = self.h, self.cell_dim
        deg = face_degree(self.k) + BC_EXTRA_DEGREE
        rhs = np.zeros(self.rec_dim)
        load = np.zeros(self.layout.n_total)
        for ft in self._faces:
            if not ft["boundary"]:
                continue
            rule = face_rule(self.mesh, ft["face"], deg)
            pts, w, n, t = rule.points, rule.weights, ft["n"], ft["t"]
            tab = self.rec_basis.tables(pts, FACE_ORDERS_3)
            Dn, Dt, Dnn, Dnt, DnLap = face_derivatives(tab, n, t)
            gD = np.asarray(bdata.dirichlet(pts), dtype=np.float64)
            grad = bdata.boundary_gradient(pts, n, t)
            gN, dtg = grad @ n, grad @ t
            rhs += Dnn.T @ (w * gN) + Dnt.T @ (w * dtg)
            rhs -= DnLap.T @ (w * gD)
            load[:nc] += (fac_low * h ** -3 * tab[(0, 0)][:, :nc].T @ (w * gD)
                          + fac_hm1 * h ** -1 * (Dn[:, :nc].T @ (w * gN)
                                                 + Dt[:, :nc].T @ (w * dtg)))
        lifting = self.saddle_solve(rhs[:, None])[:, 0]
        return rhs, lifting, load

    def nitsche_data(self, bdata, scaling, R):
        """Lifting coefficients and the boundary part of the local load vector."""
        rhs_lift, lifting, load = self._nitsche_terms(bdata, scaling)
        return lifting, load - R.T @ rhs_lift

    def nitsche_load_two_path(self, bdata, scaling, R):
        """Data terms of the load assembled through the lifting (cross-check path)."""
        _, lifting, load = self._nitsche_terms(bdata, scaling)
        return load - R.T @ (self.G @ lifting)


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
    """Build all local matrices of one cell.

    With `check_kernel`, verifies that ker(A) has dimension exactly 3 (the
    affine modes), or 0 on Nitsche cells touching the boundary; a mismatch
    signals a quadrature or orientation-sign defect and raises AssemblyError.
    """
    work = _CellWork(mesh, cell_id, variant, k, nitsche)
    R = work.reconstruction()
    S = work.stabilization(scaling, R=R)
    A = R.T @ work.G @ R + S
    A = 0.5 * (A + A.T)

    lifting = None
    load_boundary = None
    if nitsche:
        has_boundary = any(ft["boundary"] for ft in work._faces)
        if bdata is not None and has_boundary:
            lifting, load_boundary = work.nitsche_data(bdata, scaling, R)
        else:
            lifting = np.zeros(work.rec_dim)
            load_boundary = np.zeros(work.layout.n_total)

    if check_kernel:
        expected = 0 if (nitsche and any(ft["boundary"] for ft in work._faces)) else 3
        got = _kernel_dim(A)
        if got != expected:
            raise AssemblyError(
                f"cell {cell_id}: local form has kernel dimension {got}, "
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
