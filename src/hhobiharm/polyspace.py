"""Polynomial spaces on cells and faces.

Cell spaces use scaled monomials ((x - x_K) / h_K)^alpha ordered by total
degree, so every P^m basis is a prefix of the P^{m'} basis for m <= m'.  Face
spaces use scaled 1D monomials in the arclength coordinate centered at the
face midpoint and scaled by h_F, so the parameter runs over [-1/2, 1/2].

Besides plain L^2 projections, the module provides the canonical hybrid
interpolation onto P^{k+1} of a face: it matches the two endpoint values and,
for k >= 1, the moments against P^{k-1}.  Consequently it commutes with the
tangential derivative through the L^2 projection onto P^k.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from .common import tr
from .mesh import Mesh, MeshError
from .quadrature import QuadratureRule, segment_rule

__all__ = [
    "CellBasis", "FaceBasis", "PolyCoeffs", "space_dim",
    "cell_mass_matrix", "project_cell", "project_face",
    "canonical_interp_face", "canonical_interp_matrix",
    "reference_interp_matrix", "tangential_derivative",
    "face_derivatives", "trace_on_face", "normal_derivative_on_face",
    "hessian_traces_on_face",
]

# Derivative orders read by `face_derivatives`, without and with the third order.
FACE_ORDERS_2 = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
FACE_ORDERS_3 = FACE_ORDERS_2 + [(3, 0), (2, 1), (1, 2), (0, 3)]


def space_dim(degree: int) -> int:
    """dim P^degree in 2D."""
    return (degree + 1) * (degree + 2) // 2


@lru_cache(maxsize=64)
def _exponents(degree: int) -> np.ndarray:
    """Graded multi-index table (0,0), (1,0), (0,1), (2,0), ... (read-only)."""
    out = [(d - j, j) for d in range(degree + 1) for j in range(d + 1)]
    out = np.array(out, dtype=np.int64)
    out.flags.writeable = False
    return out


def _falling(a, p):
    """Falling factorial a (a-1) ... (a-p+1), zero when a < p."""
    out = np.ones_like(a, dtype=np.float64)
    for i in range(p):
        out *= np.maximum(a - i, 0)
    out[a < p] = 0.0
    return out


@lru_cache(maxsize=256)
def _deriv_factors(degree: int, order: tuple):
    """Derivative `order` of the unscaled monomials of `degree` (read-only).

    `order` has one entry per variable: (dx, dy) for the graded cell
    monomials, (m,) for the face monomials s^j.  Returns the product of the
    falling factorials of each monomial and its remaining exponents, one
    column per variable.
    """
    exps = (_exponents(degree) if len(order) == 2
            else np.arange(degree + 1)[:, None])
    coeff = np.prod([_falling(e, p) for e, p in zip(exps.T, order)], axis=0)
    rest = np.maximum(exps - np.array(order), 0)
    for arr in (coeff, rest):
        arr.flags.writeable = False
    return coeff, rest


class CellBasis:
    """Scaled monomial basis ((x-c)/h)^ax ((y-c)/h)^ay, |alpha| <= degree.

    With a leading cell axis on center (ncells, 2) and scale (ncells,) it
    stands for many cells at once, on points and tables with the same
    leading axis."""

    def __init__(self, center, scale, degree: int, cell_id=None):
        self.center = np.asarray(center, dtype=np.float64)
        self.scale = np.asarray(scale, dtype=np.float64)
        self.degree = int(degree)
        self.cell_id = cell_id
        self.exponents = _exponents(degree)
        self.dim = len(self.exponents)

    @classmethod
    def for_cell(cls, mesh: Mesh, cell_id, degree: int):
        """Basis of one cell, or of every cell of an array of cell ids."""
        return cls(mesh.cell_centroid[cell_id], mesh.cell_diameter[cell_id],
                   degree, cell_id=cell_id)

    def tables(self, pts, orders) -> dict:
        """Derivative tables for several orders, sharing the power computations.

        `orders` is an iterable of (dx, dy); the result maps each pair to the
        (npts, dim) table of d^dx_x d^dy_y phi_j at the points, or the
        (ncells, npts, dim) stack for (ncells, npts, 2) points of as many
        cells.  Scale powers use C `pow`, as on a scalar, for the same bits.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        scale = self.scale[..., None]
        X = (pts[..., 0] - self.center[..., None, 0]) / scale
        Y = (pts[..., 1] - self.center[..., None, 1]) / scale
        deg = self.degree
        Xp = np.empty(X.shape + (deg + 1,))
        Yp = np.empty(Y.shape + (deg + 1,))
        Xp[..., 0] = 1.0
        Yp[..., 0] = 1.0
        for i in range(1, deg + 1):
            Xp[..., i] = Xp[..., i - 1] * X
            Yp[..., i] = Yp[..., i - 1] * Y
        out = {}
        for dx, dy in orders:
            coeff, rest = _deriv_factors(deg, (dx, dy))
            coeff = coeff / np.float_power(scale, dx + dy)
            table = Xp[..., rest[:, 0]]
            table *= coeff[..., None, :]
            table *= Yp[..., rest[:, 1]]
            out[(dx, dy)] = table
        return out

    def eval(self, pts, dx: int = 0, dy: int = 0) -> np.ndarray:
        """Table of d^dx_x d^dy_y phi_j at the given points, shape (npts, dim)."""
        return self.tables(pts, [(dx, dy)])[(dx, dy)]

    def __repr__(self):
        return f"CellBasis(degree={self.degree}, dim={self.dim}, cell={self.cell_id})"


def face_derivatives(tab: dict, n, t):
    """Directional derivatives along a face: (Dn, Dt, Dnn, Dnt, DnLap).

    `tab` maps (dx, dy) to d^dx_x d^dy_y of something at face points: basis
    tables from `CellBasis.tables` or sampled derivatives of a function.  It
    needs the first and second orders; DnLap = d_n(Laplacian) is None unless
    the third orders are present too.  `n` and `t` are the unit normal and
    tangent of the face; for tables stacked over nF faces, (2, nF, 1, 1)
    arrays.  Squares use C `pow`, as on a numpy scalar, for the same bits.
    """
    Gx, Gy = tab[(1, 0)], tab[(0, 1)]
    Hxx, Hxy, Hyy = tab[(2, 0)], tab[(1, 1)], tab[(0, 2)]
    Dn = n[0] * Gx + n[1] * Gy
    Dt = t[0] * Gx + t[1] * Gy
    Dnn = (np.float_power(n[0], 2) * Hxx + 2 * n[0] * n[1] * Hxy
           + np.float_power(n[1], 2) * Hyy)
    Dnt = (t[0] * n[0] * Hxx + (t[0] * n[1] + t[1] * n[0]) * Hxy
           + t[1] * n[1] * Hyy)
    DnLap = None
    if (3, 0) in tab:
        DnLap = (n[0] * (tab[(3, 0)] + tab[(1, 2)])
                 + n[1] * (tab[(2, 1)] + tab[(0, 3)]))
    return Dn, Dt, Dnn, Dnt, DnLap


class FaceBasis:
    """Scaled 1D monomials s^j in the face arclength parameter s in [-1/2, 1/2].

    With a leading face axis on midpoint, tangent and length it stands for
    many faces at once, on points and tables with the same leading axis."""

    def __init__(self, midpoint, tangent, length, degree: int):
        self.midpoint = np.asarray(midpoint, dtype=np.float64)
        self.tangent = np.asarray(tangent, dtype=np.float64)
        self.length = np.asarray(length, dtype=np.float64)
        self.degree = int(degree)
        self.dim = degree + 1

    @classmethod
    def for_face(cls, mesh: Mesh, face_id, degree: int):
        """Basis of one face, or of every face of an array of face ids."""
        return cls(mesh.face_midpoint[face_id], mesh.face_tangent[face_id],
                   mesh.face_length[face_id], degree)

    def param(self, pts) -> np.ndarray:
        """Scaled arclength parameter of points lying on the face."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        along = (pts - self.midpoint[..., None, :]) @ self.tangent[..., :, None]
        return along[..., 0] / self.length[..., None]

    def eval_param(self, s, order: int = 0) -> np.ndarray:
        """Table of the order-th tangential derivative at parameters s."""
        s = np.atleast_1d(np.asarray(s, dtype=np.float64))
        coeff, rest = _deriv_factors(self.degree, (order,))
        coeff = coeff / self.length[..., None] ** order
        Sp = np.empty(s.shape + (self.dim,))
        Sp[..., 0] = 1.0
        for i in range(1, self.dim):
            Sp[..., i] = Sp[..., i - 1] * s
        return coeff[..., None, :] * Sp[..., rest[:, 0]]

    def eval(self, pts, order: int = 0) -> np.ndarray:
        return self.eval_param(self.param(pts), order)


@dataclass
class PolyCoeffs:
    """A polynomial as coefficients in a cell or face basis."""
    basis: object
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if len(self.coeffs) != self.basis.dim:
            raise ValueError(f"coefficient length {len(self.coeffs)} does not "
                             f"match basis dim {self.basis.dim}")

    def __call__(self, pts):
        return self.basis.eval(pts) @ self.coeffs


def _gram(table, weights):
    """Gram matrix of a basis table under quadrature weights; a leading
    stack axis on both gives one matrix per stacked table."""
    M = tr(table) @ (weights[..., None] * table)
    return 0.5 * (M + tr(M))


def cell_mass_matrix(basis: CellBasis, rule: QuadratureRule) -> np.ndarray:
    """SPD Gram matrix of the cell basis under the given rule."""
    M = _gram(basis.eval(rule.points), rule.weights)
    try:
        sla.cholesky(M, lower=True)
    except sla.LinAlgError as err:
        raise ValueError("cell mass matrix is not SPD; quadrature or scaling "
                         "is inconsistent") from err
    return M


def project_cell(v, basis: CellBasis, rule: QuadratureRule) -> PolyCoeffs:
    """L^2-orthogonal projection of v onto the cell basis span."""
    table = basis.eval(rule.points)
    M = _gram(table, rule.weights)
    rhs = table.T @ (rule.weights * np.asarray(v(rule.points), dtype=np.float64))
    return PolyCoeffs(basis, sla.solve(M, rhs, assume_a="pos"))


def project_face(v, basis: FaceBasis, rule: QuadratureRule) -> PolyCoeffs:
    """L^2-orthogonal projection of v onto the face basis span."""
    table = basis.eval(rule.points)
    M = _gram(table, rule.weights)
    rhs = table.T @ (rule.weights * np.asarray(v(rule.points), dtype=np.float64))
    return PolyCoeffs(basis, sla.solve(M, rhs, assume_a="pos"))


# -- canonical hybrid interpolation -------------------------------------------


def _legendre_table(s, degree):
    """Legendre polynomials P_0..P_degree evaluated at 2s (s in [-1/2, 1/2])."""
    out = np.empty((len(s), degree + 1))
    for j in range(degree + 1):
        c = np.zeros(j + 1)
        c[j] = 1.0
        out[:, j] = np.polynomial.legendre.legval(2.0 * np.asarray(s), c)
    return out


def _canonical_dof_rows(basis: FaceBasis, k: int, rule: QuadratureRule,
                        weight_basis: str):
    """DoF functionals applied to the basis: endpoint values, then moments.
    A stacked basis and rule (monomial weights) give one matrix per face."""
    ends = basis.eval_param(np.array([-0.5, 0.5]))
    rows = [ends]
    if k >= 1:
        s = basis.param(rule.points)
        table = basis.eval_param(s)
        if weight_basis == "monomial":
            theta = basis.eval_param(s)[..., :k]
        elif weight_basis == "legendre":
            theta = _legendre_table(s, k - 1)
        else:
            raise ValueError(f"unknown weight basis {weight_basis!r}")
        rows.append(tr(theta) @ (rule.weights[..., None] * table))
    return np.concatenate(rows, axis=-2)


def canonical_interp_matrix(src: FaceBasis, k: int, rule: QuadratureRule,
                            weight_basis: str = "monomial") -> np.ndarray:
    """Matrix of the canonical hybrid interpolation onto P^{k+1}(F).

    Maps coefficients in `src` (any degree >= 0 on the same face) to
    coefficients in the degree-(k+1) basis of the same face.  The result is
    independent of the chosen moment weight basis.
    """
    target = FaceBasis(src.midpoint, src.tangent, src.length, k + 1)
    D_t = _canonical_dof_rows(target, k, rule, weight_basis)
    D_s = _canonical_dof_rows(src, k, rule, weight_basis)
    return sla.solve(D_t, D_s)


@lru_cache(maxsize=64)
def reference_interp_matrix(k: int, degree: int) -> np.ndarray:
    """`canonical_interp_matrix` from P^degree, valid on every face (read-only).

    The matrix does not depend on the face: in the scaled face basis the
    endpoint rows are the same on every face and the moment rows all scale
    with its length.  It is built once on the reference face [-1/2, 1/2].
    """
    src = FaceBasis(np.zeros(2), np.array([1.0, 0.0]), 1.0, degree)
    # Exact for the moments of P^{k-1} against P^max(degree, k+1).
    ref = segment_rule((k + max(degree, k + 1)) // 2 + 1)
    pts = np.column_stack([ref.points - 0.5, np.zeros(ref.n_points)])
    rule = QuadratureRule(pts, ref.weights, ref.exact_degree)
    J = canonical_interp_matrix(src, k, rule)
    J.flags.writeable = False
    return J


def canonical_interp_face(v, k: int, basis: FaceBasis, rule: QuadratureRule,
                          weight_basis: str = "monomial") -> PolyCoeffs:
    """Canonical hybrid interpolation of a function onto P^{k+1}(F).

    Matches v at the two face endpoints exactly and, for k >= 1, reproduces
    the moments of v against P^{k-1}(F).
    """
    if basis.degree != k + 1:
        raise ValueError(f"basis degree {basis.degree} does not match k+1={k + 1}")
    D = _canonical_dof_rows(basis, k, rule, weight_basis)
    half = 0.5 * basis.length * basis.tangent
    endpoints = np.vstack([basis.midpoint - half, basis.midpoint + half])
    d = [np.asarray(v(endpoints), dtype=np.float64)]
    if k >= 1:
        s = basis.param(rule.points)
        if weight_basis == "monomial":
            theta = basis.eval_param(s)[:, :k]
        else:
            theta = _legendre_table(s, k - 1)
        vals = np.asarray(v(rule.points), dtype=np.float64)
        d.append(theta.T @ (rule.weights * vals))
    return PolyCoeffs(basis, sla.solve(D, np.concatenate(d)))


def tangential_derivative(face_poly: PolyCoeffs) -> PolyCoeffs:
    """Exact tangential derivative; degree drops by one (0 -> zero polynomial)."""
    b = face_poly.basis
    out = FaceBasis(b.midpoint, b.tangent, b.length, max(b.degree - 1, 0))
    if b.degree == 0:
        return PolyCoeffs(out, np.zeros(1))
    return PolyCoeffs(out, np.arange(1, b.dim) / b.length * face_poly.coeffs[1:])


# -- traces of cell polynomials on faces ---------------------------------------


def _face_frame(poly: PolyCoeffs, mesh: Mesh, face_id: int):
    basis = poly.basis
    if basis.cell_id is None:
        raise MeshError("cell polynomial is not attached to a mesh cell")
    if face_id not in mesh.cell_faces[basis.cell_id]:
        raise MeshError(f"face {face_id} is not on cell {basis.cell_id}")
    n_out = mesh.outward_normal(basis.cell_id, face_id)
    t = mesh.face_tangent[face_id]
    return n_out, t


def trace_on_face(poly: PolyCoeffs, mesh: Mesh, face_id: int,
                  rule: QuadratureRule) -> np.ndarray:
    """Values of the cell polynomial at the face quadrature points."""
    _face_frame(poly, mesh, face_id)
    return poly.basis.eval(rule.points) @ poly.coeffs


def _face_traces(poly: PolyCoeffs, mesh: Mesh, face_id: int,
                 rule: QuadratureRule):
    n, t = _face_frame(poly, mesh, face_id)
    tab = poly.basis.tables(rule.points, FACE_ORDERS_3)
    return face_derivatives({key: T @ poly.coeffs for key, T in tab.items()},
                            n, t)


def normal_derivative_on_face(poly: PolyCoeffs, mesh: Mesh, face_id: int,
                              rule: QuadratureRule) -> np.ndarray:
    """d_n with respect to the outward normal of the polynomial's cell."""
    return _face_traces(poly, mesh, face_id, rule)[0]


def hessian_traces_on_face(poly: PolyCoeffs, mesh: Mesh, face_id: int,
                           rule: QuadratureRule):
    """(d_nn, d_nt, d_n Laplacian) of the cell polynomial along a face."""
    return _face_traces(poly, mesh, face_id, rule)[2:]
