"""Quadrature rules exact to a declared degree on segments and polygons.

Polygon rules are composite rules over the sub-triangulation of a cell: a
collapsed tensor (Duffy) Gauss rule on the reference triangle, mapped onto all
sub-triangles in one broadcast.  All weights are strictly positive and the
rules integrate polynomials up to their declared degree exactly.

The module also fixes every rule degree the solver uses.  Every local
operator integrates products of discrete polynomials of degree at most k+2,
so `cell_degree(k)` = 2(k+2) and `face_degree(k)` = 2(k+2)+1 are exact for
them.  Only integrands with non-polynomial data need more: each kind of data
integral adds its own fixed `*_EXTRA_DEGREE` to the base degree.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import Mesh, subtriangulate

__all__ = ["QuadratureRule", "segment_rule", "face_rule", "triangle_rule",
           "cell_rule", "cell_degree", "face_degree", "RHS_EXTRA_DEGREE",
           "BC_EXTRA_DEGREE", "DATA_EXTRA_DEGREE", "ERROR_EXTRA_DEGREE"]

RHS_EXTRA_DEGREE = 2      # load integrals (f, phi)_K
BC_EXTRA_DEGREE = 4       # boundary data projections and penalty terms
DATA_EXTRA_DEGREE = 8     # reductions / projection oracles of smooth v
ERROR_EXTRA_DEGREE = 4    # error norm integration


def cell_degree(k: int) -> int:
    """Cell rule degree exact for products of discrete polynomials (<= k+2)."""
    return 2 * (k + 2)


def face_degree(k: int) -> int:
    """Face rule degree exact for products of discrete polynomials (<= k+2)."""
    return 2 * (k + 2) + 1


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable quadrature rule; points are (n,) abscissae or (n, 2) coordinates."""
    points: np.ndarray
    weights: np.ndarray
    exact_degree: int

    def __post_init__(self):
        self.points.flags.writeable = False
        self.weights.flags.writeable = False

    @property
    def n_points(self):
        return self.weights.shape[-1]


@lru_cache(maxsize=64)
def segment_rule(n_points: int) -> QuadratureRule:
    """Gauss-Legendre rule on the reference segment [0, 1], exact degree 2n-1."""
    if not 1 <= n_points <= 30:
        raise ValueError(f"n_points must be in [1, 30], got {n_points}")
    x, w = np.polynomial.legendre.leggauss(n_points)
    return QuadratureRule(0.5 * (x + 1.0), 0.5 * w, 2 * n_points - 1)


def face_rule(mesh: Mesh, face_id, degree: int) -> QuadratureRule:
    """Gauss rule along a mesh face, exact for 1D polynomials up to `degree`.

    Weights sum to the face length h_F.  An array of face ids gives the rules
    of all those faces at once, stacked along a leading face axis.
    """
    n = max(1, (degree + 2) // 2)
    ref = segment_rule(n)
    ends = mesh.vertices[mesh.face_vertices[face_id]]
    p0, p1 = ends[..., None, 0, :], ends[..., None, 1, :]
    pts = p0 + ref.points[:, None] * (p1 - p0)
    return QuadratureRule(pts, ref.weights * mesh.face_length[face_id][..., None],
                          ref.exact_degree)


@lru_cache(maxsize=64)
def triangle_rule(degree: int) -> QuadratureRule:
    """Collapsed tensor Gauss (Duffy) rule on the reference triangle.

    Reference triangle is {(x, y): x, y >= 0, x + y <= 1}; weights sum to 1/2
    and are strictly positive for any degree.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    n = max(1, (degree + 3) // 2)   # Jacobian raises the u-degree by one
    ref = segment_rule(n)
    u, v = np.meshgrid(ref.points, ref.points, indexing="ij")
    wu, wv = np.meshgrid(ref.weights, ref.weights, indexing="ij")
    x = u * (1.0 - v)
    y = u * v
    w = wu * wv * u
    pts = np.column_stack([x.ravel(), y.ravel()])
    return QuadratureRule(pts, w.ravel(), degree)


def cell_rule(mesh: Mesh, cell_id, degree: int) -> QuadratureRule:
    """Composite rule over the sub-triangulation of one cell.

    Exact for 2D polynomials of total degree up to `degree`; weights sum to
    the cell area.  The reference rule is mapped onto all sub-triangles at
    once.  An array of the ids of cells of one vertex count and one kind of
    sub-triangulation, of a `Mesh` or a `CellShape`, gives the rules of all
    those cells stacked along a leading cell axis: points (ncells, nq, 2) and
    weights (ncells, nq).
    """
    ref = triangle_rule(degree)
    tris = subtriangulate(mesh, cell_id)
    a = tris[..., None, 0, :]
    ab = tris[..., None, 1, :] - a
    ac = tris[..., None, 2, :] - a
    jac = np.abs(ab[..., 0] * ac[..., 1] - ab[..., 1] * ac[..., 0])
    pts = a + ref.points[:, :1] * ab + ref.points[:, 1:] * ac
    lead = tris.shape[:-3]
    return QuadratureRule(pts.reshape(lead + (-1, 2)),
                          (ref.weights * jac).reshape(lead + (-1,)), degree)
