"""Polygonal meshes of (0,1)^2: data model, generators, JSON IO, validation.

Cells are simple polygons stored as counterclockwise loops of faces, in one
CSR table of flat arrays (see `_Cells`).  Every face is a straight segment
shared by one (boundary) or two (interface) cells and carries a fixed unit
normal; boundary faces are oriented so their normal points out of the
domain.  The per-cell signs sigma = n_F . n_K recover the outward normal of
each cell from the stored face normal.

The areas and centroids of all polygons come from one flattened shoelace
pass, `_polygon_moments`, used by mesh construction, the orientation of the
Voronoi generator's cells and `validate`.  The generator's Lloyd sweeps
never build a polygon: each sweep takes the areas and centroids of the
clipped Voronoi cells from kite moments of one Delaunay triangulation
(`_voronoi_moments`), and only the final diagram is a Qhull Voronoi diagram,
of the full mirror (`_clipped_voronoi`).

Meshes are immutable after construction and safe for concurrent reads.
"""

import json
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.spatial import Delaunay, Voronoi, cKDTree
from scipy.spatial._qhull import QhullError

__all__ = [
    "Mesh", "CellShape", "ValidationReport",
    "MeshError", "MeshFormatError",
    "build_rect_mesh", "build_tri_mesh", "build_voronoi_mesh",
    "build_polygon_mesh", "load_mesh", "save_mesh", "validate",
    "subtriangulate", "translation_classes", "class_members", "shape_batches",
    "with_flipped_face",
]

MESH_FORMAT = "hho-mesh-v1"

# Relative tolerance of `translation_classes`: vertex offsets in units of the
# cell diameter, and diameters.
SHAPE_TOL = 1e-12

# Most translation classes in one batch of `shape_batches`: the stacked
# local build and condensation of a batch allocate about 0.7 MB per class
# at k = 2 and 1.2 MB at k = 3 (hexagons), all freed with the batch.
_BATCH = 8


class MeshError(ValueError):
    """Invalid mesh geometry or topology."""


class MeshFormatError(MeshError):
    """Mesh file does not conform to the JSON schema."""


@dataclass
class ValidationReport:
    failures: list
    shape_regularity: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        status = "valid" if self.ok else "INVALID"
        lines = [f"mesh {status}, shape regularity estimate {self.shape_regularity:.4f}"]
        lines += [f"  - {f}" for f in self.failures]
        return "\n".join(lines)


def _csr(rows):
    """CSR form (ptr, flat ids) of a sequence of integer sequences."""
    ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rows), np.int64, len(rows)), out=ptr[1:])
    flat = np.array(list(chain.from_iterable(rows)))
    if flat.size and (flat.ndim != 1 or flat.dtype.kind not in "iu"):
        raise MeshFormatError("id lists must hold integers")
    return ptr, flat.astype(np.int64)


def _rows(flat, ptr):
    """The rows of a CSR table, as views of `flat`."""
    bounds = zip(ptr[:-1].tolist(), ptr[1:].tolist())
    return tuple(flat[a:b] for a, b in bounds)


def _positions(ptr):
    """Cell of each flat position of a CSR table, and the positions of the
    previous and the next entry of the same cell, cyclically."""
    counts = np.diff(ptr)
    cell = np.repeat(np.arange(len(counts)), counts)
    pos = np.arange(ptr[-1])
    start, m = ptr[cell], counts[cell]
    return cell, start + (pos - start - 1) % m, start + (pos - start + 1) % m


def _polygon_moments(points, ptr, flat):
    """Signed area and centroid of every polygon in one flattened pass.

    The polygons are the rows of the CSR table (`ptr`, `flat`) of vertex ids
    into `points` (see `_csr`), each loop in either orientation: its sign
    cancels between the area and the first moments.  The shoelace sums run
    relative to each loop's first vertex: in absolute coordinates a small
    cell far from the origin loses digits to cancellation.  A zero area gives
    a non-finite centroid and no warning.
    """
    starts, nxt = ptr[:-1], _positions(ptr)[2]
    first = points[flat[starts]]
    rel = points[flat] - np.repeat(first, np.diff(ptr), axis=0)
    x, y = rel.T
    xn, yn = rel[nxt].T
    cross = x * yn - xn * y
    area = 0.5 * np.add.reduceat(cross, starts)
    with np.errstate(divide="ignore", invalid="ignore"):
        cx = np.add.reduceat((x + xn) * cross, starts) / (6.0 * area)
        cy = np.add.reduceat((y + yn) * cross, starts) / (6.0 * area)
    return area, first + np.column_stack([cx, cy])


CellRows = namedtuple("CellRows", "faces signs loops")


class _Cells:
    """Cell topology in CSR form, shared by `Mesh` and `CellShape`: cell c
    owns the flat positions cell_ptr[c], ..., cell_ptr[c+1] - 1 of
    `cell_face` (its faces in loop order), `cell_face_sign` (sigma = n_F . n_K
    of each) and `cell_loop` (its vertices; face i runs from loop vertex i to
    loop vertex i+1).  `cell_rows` is the one gather of dense rows, and the
    tuples `cell_faces`, `cell_signs` and `cell_loops` hold read-only
    per-cell views for per-cell callers."""

    n_cells = property(lambda self: len(self.cell_ptr) - 1)
    cell_faces = cached_property(lambda s: _rows(s.cell_face, s.cell_ptr))
    cell_signs = cached_property(lambda s: _rows(s.cell_face_sign, s.cell_ptr))
    cell_loops = cached_property(lambda s: _rows(s.cell_loop, s.cell_ptr))

    def cell_rows(self, cells) -> CellRows:
        """Faces, signs and loops of one cell, or of an array of cells of one
        vertex count nv, as arrays of shape np.shape(cells) + (nv,)."""
        idx = self._row_index(cells)
        return CellRows(self.cell_face[idx], self.cell_face_sign[idx],
                        self.cell_loop[idx])

    def cell_polygon(self, c) -> np.ndarray:
        return self.vertices[self.cell_loop[self._row_index(c)]]

    def _row_index(self, cells):
        start = self.cell_ptr[cells]
        size = self.cell_ptr[np.add(cells, 1)] - start
        nv = size.max()
        if size.min() != nv:
            raise MeshError("the cells of a row gather must share their "
                            "vertex count")
        return start[..., None] + np.arange(nv)


class Mesh(_Cells):
    """Conforming polygonal mesh (struct-of-arrays storage, immutable).

    Vertices and faces are (n, 2) arrays, and the cell topology is one CSR
    table of flat arrays (see `_Cells`), built in one vectorized pass.  The
    constructor takes each cell's face ids in loop order and, optionally,
    the signs they must have (`given_signs`, as `save_mesh` stores them).
    """

    def __init__(self, vertices, face_vertices, cell_faces, given_signs=None):
        self._build(vertices, face_vertices, *_csr(cell_faces),
                    None if given_signs is None else _csr(given_signs))

    @classmethod
    def _from_csr(cls, vertices, face_vertices, cell_ptr, cell_face):
        mesh = cls.__new__(cls)
        mesh._build(vertices, face_vertices, cell_ptr, cell_face)
        return mesh

    def _build(self, vertices, face_vertices, ptr, cf, given_signs=None):
        vertices = np.asarray(vertices, dtype=np.float64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshFormatError("vertices must be an (n, 2) array")
        if not np.all(np.isfinite(vertices)):
            raise MeshFormatError("vertices contain non-finite coordinates")
        face_vertices = np.array(face_vertices, dtype=np.int64)
        if face_vertices.ndim != 2 or face_vertices.shape[1] != 2:
            raise MeshFormatError("faces must be an (n, 2) index array")

        nv, nf, nc = len(vertices), len(face_vertices), len(ptr) - 1
        if nf and (face_vertices.min() < 0 or face_vertices.max() >= nv):
            raise MeshFormatError("face references an unknown vertex")

        # Face adjacency from the cell face lists.
        cell, prev, nxt = _positions(ptr)
        bad = np.flatnonzero((cf < 0) | (cf >= nf))
        if len(bad):
            raise MeshFormatError(f"cell {cell[bad[0]]}: face adjacency "
                                  f"(unknown face id {cf[bad[0]]})")
        count = np.bincount(cf, minlength=nf)
        bad = np.flatnonzero((count < 1) | (count > 2))
        if len(bad):
            raise MeshFormatError(f"face {bad[0]}: face adjacency "
                                  f"({count[bad[0]]} incident cells, "
                                  f"expected 1 or 2)")

        # Loop vertex i is the one vertex that faces i-1 and i share; each
        # face must end where the next one starts.
        a, b = face_vertices[cf].T
        pa, pb = face_vertices[cf[prev]].T
        a_in, b_in = (a == pa) | (a == pb), (b == pa) | (b == pb)
        loop = np.where(a_in, a, b)
        broken = (a_in & b_in & (a != b)) | (np.where(a_in, b, a) != loop[nxt])
        sizes = np.diff(ptr)
        short = sizes < 3
        faulty = short | (np.bincount(cell[broken], minlength=nc) > 0)
        if faulty.any():
            c = np.argmax(faulty)
            if short[c]:
                raise MeshFormatError(f"cell {c}: fewer than 3 faces")
            p = ptr[c] + np.argmax(broken[ptr[c]:ptr[c + 1]])
            raise MeshFormatError(f"cell {c}: cell boundary not closed "
                                  f"(face {cf[p]} does not continue the loop)")
        self.cell_ptr, self.cell_face, self.cell_loop = ptr, cf, loop
        self.cell_area, self.cell_centroid = _polygon_moments(vertices, ptr,
                                                              loop)
        bad = np.flatnonzero(~(self.cell_area > 0))
        if len(bad):
            raise MeshFormatError(f"cell {bad[0]}: face loop is not "
                                  f"counterclockwise or encloses no area")
        sign = np.where(a == loop, 1, -1)

        if given_signs is not None and not (
                np.array_equal(given_signs[0], ptr)
                and np.array_equal(given_signs[1], sign)):
            gptr, gsign = given_signs
            c = next((c for c in range(nc) if c + 1 >= len(gptr) or not
                      np.array_equal(gsign[gptr[c]:gptr[c + 1]],
                                     sign[ptr[c]:ptr[c + 1]])), nc)
            raise MeshFormatError(f"cell {c}: stored face signs disagree "
                                  f"with geometry")

        # Normalize boundary faces to point outward (n_F = n on the boundary).
        flip = (count[cf] == 1) & (sign < 0)
        face_vertices[cf[flip]] = face_vertices[cf[flip], ::-1]
        sign[flip] = 1
        self.cell_face_sign = sign

        # The cells of each face in ascending order, -1 for none.
        order = np.argsort(cf, kind="stable")
        first = np.cumsum(count) - count
        self.face_cells = np.full((nf, 2), -1, dtype=np.int64)
        self.face_cells[:, 0] = cell[order[first]]
        two = count == 2
        self.face_cells[two, 1] = cell[order[first[two] + 1]]

        self.vertices = vertices
        self.face_vertices = face_vertices

        # Derived geometry.
        p0 = vertices[face_vertices[:, 0]]
        p1 = vertices[face_vertices[:, 1]]
        dvec = p1 - p0
        self.face_length = np.linalg.norm(dvec, axis=1)
        if np.any(self.face_length <= 0):
            raise MeshFormatError("degenerate zero-length face")
        self.face_tangent = dvec / self.face_length[:, None]
        self.face_normal = np.column_stack(
            [self.face_tangent[:, 1], -self.face_tangent[:, 0]])
        self.face_midpoint = 0.5 * (p0 + p1)
        self.is_boundary_face = self.face_cells[:, 1] < 0

        # Diameters, one vertex-count group at a time.
        self.cell_diameter = np.empty(nc)
        for m in np.unique(sizes):
            ids = np.flatnonzero(sizes == m)
            pts = self.cell_polygon(ids)
            d = pts[:, :, None, :] - pts[:, None, :, :]
            self.cell_diameter[ids] = np.sqrt(
                (d ** 2).sum(axis=-1).max(axis=(1, 2)))

        for arr in (self.vertices, self.face_vertices, self.face_cells,
                    self.face_length, self.face_tangent, self.face_normal,
                    self.face_midpoint, self.cell_centroid, self.cell_area,
                    self.cell_diameter, self.cell_ptr, self.cell_face,
                    self.cell_face_sign, self.cell_loop):
            arr.flags.writeable = False

    # -- basic queries ------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.face_vertices)

    @property
    def h_max(self):
        return float(self.cell_diameter.max())

    def boundary_faces(self):
        return np.nonzero(self.is_boundary_face)[0]

    def interior_faces(self):
        return np.nonzero(~self.is_boundary_face)[0]

    def cell_sign(self, c: int, f: int) -> int:
        pos = np.nonzero(self.cell_faces[c] == f)[0]
        if len(pos) == 0:
            raise MeshError(f"face {f} is not on cell {c}")
        return int(self.cell_signs[c][pos[0]])

    def outward_normal(self, c: int, f: int) -> np.ndarray:
        return self.cell_sign(c, f) * self.face_normal[f]

    def domain_area(self) -> float:
        """Area enclosed by the boundary (Green's theorem, exact)."""
        b = self.boundary_faces()
        return float(np.sum(self.face_midpoint[b, 0] * self.face_normal[b, 0]
                            * self.face_length[b]))

    def __eq__(self, other):
        if not isinstance(other, Mesh):
            return NotImplemented
        return (np.array_equal(self.vertices, other.vertices)
                and np.array_equal(self.face_vertices, other.face_vertices)
                and np.array_equal(self.cell_ptr, other.cell_ptr)
                and np.array_equal(self.cell_face, other.cell_face))

    def __repr__(self):
        return (f"Mesh({self.n_vertices} vertices, {self.n_faces} faces, "
                f"{self.n_cells} cells)")

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def from_cell_loops(vertices, loops):
        """Build a mesh from per-cell counterclockwise vertex loops.

        Faces are the unique vertex pairs, numbered in order of first
        appearance; each face keeps the orientation given by the first cell
        that traverses it.
        """
        vertices = np.asarray(vertices, dtype=np.float64)
        ptr, a = _csr(loops)
        if len(a) and (a.min() < 0 or a.max() >= len(vertices)):
            raise MeshFormatError("face references an unknown vertex")
        b = a[_positions(ptr)[2]]
        key = np.minimum(a, b) * len(vertices) + np.maximum(a, b)
        _, first, inverse = np.unique(key, return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        face = np.empty_like(order)
        face[order] = np.arange(len(order))
        return Mesh._from_csr(vertices, np.column_stack([a, b])[first[order]],
                              ptr, face[inverse])


class CellShape(_Cells):
    """Mesh cells moved so that their centroids are the origin, as the cells
    0, 1, ... of a mesh of unconnected cells.

    It carries the `Mesh` attributes that the per-cell builders read (the
    quadrature rules, the bases and the local operators), without the cost of
    building and checking a `Mesh`.  `cells` is one cell id, or an array of
    the ids of cells with the same vertex count, which are stacked: shape b
    owns faces, vertices and CSR positions b * nv, ..., b * nv + nv - 1, so
    the builders take an array of shape ids as they take one of mesh cells.
    Face a of a shape runs from its loop vertex a to loop vertex a+1, so every
    sign is +1: this is the cell's loop frame.  The boundary flags are those
    of the cell's faces in the mesh; a boundary face is stored along the loop,
    so its normal points out of the domain here too.  Operators built on a
    shape serve every cell of its translation class.
    """

    def __init__(self, mesh: Mesh, cells):
        cells = np.atleast_1d(cells)
        faces, sgn, loops = mesh.cell_rows(cells)
        sgn = sgn[..., None]
        verts = mesh.vertices[loops] - mesh.cell_centroid[cells][:, None]
        n, m = loops.shape
        ids = np.arange(n * m)
        nxt = np.roll(ids.reshape(n, m), -1, axis=1).ravel()
        self.vertices = verts.reshape(-1, 2)
        self.face_vertices = np.column_stack([ids, nxt])
        self.face_length = mesh.face_length[faces].ravel()
        self.face_tangent = (sgn * mesh.face_tangent[faces]).reshape(-1, 2)
        self.face_normal = (sgn * mesh.face_normal[faces]).reshape(-1, 2)
        self.face_midpoint = 0.5 * (self.vertices + self.vertices[nxt])
        self.is_boundary_face = mesh.is_boundary_face[faces].ravel()
        self.cell_ptr = np.arange(0, n * m + 1, m)
        self.cell_face = self.cell_loop = ids
        self.cell_face_sign = np.ones(n * m, dtype=np.int64)
        self.cell_centroid = np.zeros((n, 2))
        self.cell_diameter = mesh.cell_diameter[cells]

    def offsets(self, mesh: Mesh, cells) -> np.ndarray:
        """Translations that carry the shapes onto the given cells of `mesh`,
        first vertex onto first vertex: `cells` is (n_shapes, m), one row of
        cells per shape, and the result (n_shapes, m, 2)."""
        origin = self.vertices[self.cell_ptr[:-1]]    # loop vertex 0
        return mesh.cell_polygon(cells)[..., 0, :] - origin[:, None]


def translation_classes(mesh: Mesh) -> np.ndarray:
    """Translation class of every cell: one label per cell.

    Classes are numbered 0, 1, ... in the order of their first cells; a cell
    with no translate in the mesh is a class of one.

    A cell joins the class of the first cell whose vertex loop, taken
    relative to its first vertex, agrees with its own in loop order to
    SHAPE_TOL times that first cell's diameter, and whose diameter agrees to
    SHAPE_TOL relative.  The stored face orientations play no part.  The key
    is taken relative to the first vertex, a mesh coordinate, and not to the
    centroid, which is computed and carries its own rounding error.
    """
    n = mesh.n_cells
    labels = np.full(n, -1, dtype=np.int64)
    sizes = np.diff(mesh.cell_ptr)
    # Per cell: position in its vertex-count group, and the window of that
    # group's cells sorted by diameter whose diameters agree with its own.
    pos, lo, hi = (np.empty(n, dtype=np.int64) for _ in range(3))
    groups = {}
    for m in np.unique(sizes):
        ids = np.nonzero(sizes == m)[0]
        pts = mesh.cell_polygon(ids)
        offsets = pts - pts[:, :1]
        h = mesh.cell_diameter[ids]
        by_h = np.argsort(h, kind="stable")
        pos[ids] = np.arange(len(ids))
        lo[ids] = np.searchsorted(h[by_h], h * (1 - SHAPE_TOL), side="left")
        hi[ids] = np.searchsorted(h[by_h], h * (1 + SHAPE_TOL), side="right")
        groups[m] = (ids, offsets.reshape(len(ids), -1), h, by_h)
    count = 0
    for c in range(n):
        if labels[c] >= 0:
            continue
        ids, offsets, h, by_h = groups[sizes[c]]
        i = pos[c]
        cand = by_h[lo[c]:hi[c]]
        if len(cand) > 1:        # else c alone has its diameter
            cand = cand[labels[ids[cand]] < 0]
            cand = cand[np.abs(offsets[cand] - offsets[i]).max(axis=1)
                        <= SHAPE_TOL * h[i]]
        labels[ids[cand]] = count
        count += 1
    return labels


def class_members(labels: np.ndarray) -> list:
    """Cell ids of each class of a labelling, in ascending label order."""
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def shape_batches(mesh: Mesh, members: list, extra=None) -> list:
    """Batches of translation classes that the per-cell builders can stack.

    `members` holds the cell ids of each class (see `class_members`), and
    `extra`, if given, one more key per class.  The classes of a batch share
    the vertex count, the sub-triangle count (a centroid fan or an
    ear-clipping, see `subtriangulate`), the member count and the extra key.
    A batch holds at most `_BATCH` classes, in the order of `members`.
    Returns the indices into `members` of each batch, the batches in the
    order of their first classes.
    """
    first = np.array([cells[0] for cells in members])
    sizes = np.diff(mesh.cell_ptr)[first]
    ntri = np.ones_like(sizes)
    for n in np.unique(sizes[sizes > 3]):
        sel = np.flatnonzero(sizes == n)
        c = first[sel]
        fan = _fan(mesh.cell_polygon(c), mesh.cell_centroid[c],
                   mesh.cell_diameter[c])
        ntri[sel] = np.where(fan, n, n - 2)
    if extra is None:
        extra = [None] * len(members)
    groups = {}
    for i, key in enumerate(zip(sizes, ntri, map(len, members), extra)):
        groups.setdefault(key, []).append(i)
    batches = [g[j:j + _BATCH] for g in groups.values()
               for j in range(0, len(g), _BATCH)]
    return [np.array(b) for b in sorted(batches)]


# -- generators --------------------------------------------------------------


def build_rect_mesh(nx: int, ny: int) -> Mesh:
    """Axis-aligned nx-by-ny rectangle tiling of (0,1)^2."""
    if nx < 1 or ny < 1:
        raise MeshError("nx and ny must be positive")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    vid = lambda i, j: j * (nx + 1) + i
    vertices = np.array([[xs[i], ys[j]] for j in range(ny + 1)
                         for i in range(nx + 1)])
    loops = [[vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
             for j in range(ny) for i in range(nx)]
    return Mesh.from_cell_loops(vertices, loops)


def build_tri_mesh(n: int) -> Mesh:
    """Uniform triangulation of (0,1)^2 with 2*n^2 cells.

    Each of the n^2 squares is split along the diagonal running from its
    lower-left to its upper-right corner, so doubling n quadrisects every
    triangle and multiplies the cell count by 4.
    """
    if n < 1:
        raise MeshError("n must be positive")
    xs = np.linspace(0.0, 1.0, n + 1)
    vid = lambda i, j: j * (n + 1) + i
    vertices = np.array([[xs[i], xs[j]] for j in range(n + 1)
                         for i in range(n + 1)])
    loops = []
    for j in range(n):
        for i in range(n):
            loops.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            loops.append([vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return Mesh.from_cell_loops(vertices, loops)


def build_polygon_mesh(vertices) -> Mesh:
    """Single-cell mesh from one counterclockwise polygon."""
    vertices = np.asarray(vertices, dtype=np.float64)
    return Mesh.from_cell_loops(vertices, [list(range(len(vertices)))])


def _mirror_points(pts, band):
    """Original points plus their reflections across the four sides of
    (0,1)^2, each side reflecting only the points within `band` of it."""
    x, y = pts.T
    refl = [pts[x <= band] * [-1, 1], pts[1 - x <= band] * [-1, 1] + [2, 0],
            pts[y <= band] * [1, -1], pts[1 - y <= band] * [1, -1] + [0, 2]]
    return np.vstack([pts] + refl)


def _clipped_voronoi(pts):
    """Voronoi cells of pts clipped exactly to (0,1)^2 by reflecting every
    generator across each side of the square.

    Returns (vertex coordinates, list of vertex-id loops, one per point of
    pts).  A loop holds -1 where its region is unbounded.
    """
    vor = Voronoi(_mirror_points(pts, np.inf))
    return vor.vertices, [vor.regions[r] for r in vor.point_region[:len(pts)]]


def _voronoi_moments(pts, band):
    """Area and centroid of the Voronoi cell of each generator in pts,
    clipped exactly to (0,1)^2, from one Delaunay triangulation.

    The generators within `band` of a side are reflected across it
    (PolyMesher's reflection); a band of 1 or more reflects them all.  A
    missing reflection q' of a generator q never cuts a cell inside the
    square, where |x - q'| >= |x - q|, so a cell is exact when its generator
    is not on the hull and the circumcentres of the triangles around it all
    lie in [0,1]^2 (to 1e-12).  Until every cell passes that check the band
    is doubled; the full mirror needs no check.

    Each corner a of a (counterclockwise) triangle T adds its kite
    (p_a, m_ab, c_T, m_ca), with m the edge midpoints and c_T the
    circumcentre, as two signed triangles relative to p_a.  Around a
    generator inside the hull the kites add up to the polygon of
    circumcentres, its Voronoi cell.  A generator with no triangle (the
    twin of a coincident one) or a cell without a positive finite area
    raises `MeshError`.
    """
    n = len(pts)
    while True:
        tri = Delaunay(_mirror_points(pts, band))
        corner = tri.points[tri.simplices]           # CCW in 2-D
        e1, e2 = (corner[:, 1:] - corner[:, :1]).transpose(1, 2, 0)
        s1, s2 = (e1 ** 2).sum(axis=0), (e2 ** 2).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = 2.0 * (e1[0] * e2[1] - e1[1] * e2[0])
            centre = corner[:, 0] + np.column_stack(
                [e2[1] * s1 - e1[1] * s2, e1[0] * s2 - e2[0] * s1]) / d[:, None]
        bounded = not np.any(tri.convex_hull < n)
        if band >= 1.0:
            if not bounded:
                raise MeshError("unbounded or degenerate Voronoi region")
            break
        near = np.any(tri.simplices < n, axis=1)
        if bounded and np.all(np.abs(centre[near] - 0.5) <= 0.5 + 1e-12):
            break
        band *= 2.0

    # Relative to each corner p_a: q = c_T - p_a, hb = m_ab - p_a and
    # hc = m_ca - p_a.
    q = centre[:, None] - corner
    hb = 0.5 * (np.roll(corner, -1, axis=1) - corner)
    hc = 0.5 * (np.roll(corner, 1, axis=1) - corner)
    a1 = 0.5 * (hb[..., 0] * q[..., 1] - hb[..., 1] * q[..., 0])
    a2 = 0.5 * (q[..., 0] * hc[..., 1] - q[..., 1] * hc[..., 0])
    moment = (a1[..., None] * (hb + q) + a2[..., None] * (q + hc)) / 3.0
    ids, size = tri.simplices.ravel(), len(tri.points)
    area = np.bincount(ids, (a1 + a2).ravel(), size)[:n]
    if not np.all(np.isfinite(area) & (area > 0)):
        raise MeshError("degenerate Voronoi cell in a Lloyd sweep")
    first = np.column_stack([np.bincount(ids, moment[..., i].ravel(), size)[:n]
                             for i in range(2)])
    return area, pts + first / area[:, None]


def _voronoi_mesh_once(points, n_cells):
    """Build a Mesh from the clipped Voronoi diagram of the given points."""
    vor_vertices, regions = _clipped_voronoi(points)
    ptr, ids = _csr(regions)
    if np.diff(ptr).min() < 3 or ids.min() < 0:
        raise MeshError("unbounded or degenerate Voronoi region")
    used = np.unique(ids)
    verts = vor_vertices[used].copy()
    remap = np.full(len(vor_vertices), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))

    # Snap to the exact domain boundary and merge near-duplicate vertices.
    for val in (0.0, 1.0):
        verts[np.abs(verts - val) < 1e-12] = val
    alias = np.arange(len(verts))
    tree = cKDTree(verts)
    for a, b in sorted(tree.query_pairs(1e-9)):
        ra, rb = alias[a], alias[b]
        if ra != rb:
            alias[alias == max(ra, rb)] = min(ra, rb)
    keep = np.unique(alias)
    final = np.full(len(verts), -1, dtype=np.int64)
    final[keep] = np.arange(len(keep))
    vertex_map = final[alias]
    verts = verts[keep]

    # Drop each vertex equal to its cyclic predecessor, then turn the
    # clockwise loops around.
    loop = vertex_map[remap[ids]]
    cell, prev, _ = _positions(ptr)
    kept = loop != loop[prev]
    np.cumsum(np.bincount(cell[kept], minlength=len(ptr) - 1), out=ptr[1:])
    if np.diff(ptr).min() < 3:
        raise MeshError("degenerate Voronoi cell after vertex merging")
    loop, cell = loop[kept], cell[kept]
    area, _ = _polygon_moments(verts, ptr, loop)
    pos = np.arange(len(loop))
    loop = loop[np.where(area[cell] < 0, ptr[cell] + ptr[cell + 1] - 1 - pos,
                         pos)]
    mesh = Mesh.from_cell_loops(verts, _rows(loop, ptr))
    if mesh.n_cells != n_cells:
        raise MeshError("Voronoi generator lost cells")
    return mesh


def build_voronoi_mesh(n_cells: int, seed: int, lloyd_iters: int = 20) -> Mesh:
    """Lloyd-relaxed Voronoi partition of (0,1)^2 with n_cells polygons.

    Generator points are drawn uniformly from a seeded RNG and `lloyd_iters`
    centroidal relaxation sweeps are applied.  Every cell is clipped exactly
    to the unit square by mirroring generators across its sides.  A sweep
    moves each generator to the centroid of its cell, computed from kite
    moments of the Delaunay triangulation (`_voronoi_moments`); it reflects
    only the generators within a band of 1.5*sqrt(1/n_cells) of a side
    (PolyMesher's choice), doubled until every cell is bounded and inside
    the square, which makes it exactly the clipped cell.  The final diagram
    is the Qhull Voronoi diagram of the full mirror (`_clipped_voronoi`): a
    band would leave its cells as they are but change Qhull's input, and
    with it the numbering of the mesh's vertices and faces.  The result is a
    pure function of (n_cells, seed, lloyd_iters).  Degenerate point sets
    are retried with perturbed seeds, up to 10 attempts.
    """
    if n_cells < 1:
        raise MeshError("n_cells must be positive")
    rng = np.random.default_rng(seed)
    points = rng.random((n_cells, 2))
    band = 1.5 * np.sqrt(1.0 / n_cells)
    last_err = None
    for _ in range(10):
        try:
            pts = points
            for _ in range(lloyd_iters):
                _, pts = _voronoi_moments(pts, band)
                np.clip(pts, 1e-9, 1.0 - 1e-9, out=pts)
            return _voronoi_mesh_once(pts, n_cells)
        except (QhullError, MeshError, MeshFormatError,
                FloatingPointError, ZeroDivisionError) as err:
            last_err = err
            points = np.clip(points + rng.normal(scale=1e-5, size=points.shape),
                             1e-6, 1 - 1e-6)
    raise MeshError(f"Voronoi generation failed after 10 attempts: {last_err}")


# -- sub-triangulation --------------------------------------------------------


def _ear_clip(pts):
    """Ear-clipping triangulation of a simple CCW polygon (coordinates)."""
    n = len(pts)
    ids = list(range(n))
    tris = []
    guard = 0
    while len(ids) > 3:
        guard += 1
        if guard > 2 * n * n:
            raise MeshError("ear clipping failed (self-intersecting polygon?)")
        found = False
        for pos in range(len(ids)):
            i0, i1, i2 = (ids[pos - 1], ids[pos], ids[(pos + 1) % len(ids)])
            a, b, c = pts[i0], pts[i1], pts[i2]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross <= 0:
                continue
            # No remaining vertex may lie inside the candidate ear.
            ok = True
            for j in ids:
                if j in (i0, i1, i2):
                    continue
                p = pts[j]
                d1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
                d2 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
                d3 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
                if d1 >= 0 and d2 >= 0 and d3 >= 0:
                    ok = False
                    break
            if ok:
                tris.append((i0, i1, i2))
                del ids[pos]
                found = True
                break
        if not found:
            raise MeshError("ear clipping failed (self-intersecting polygon?)")
    tris.append(tuple(ids))
    return np.array([[pts[i] for i in t] for t in tris])


def _fan(pts, cen, h):
    """Whether polygons (..., n, 2) are strictly star-shaped with respect to
    their centroids `cen` (..., 2), to a margin set by their diameters `h`."""
    v1 = pts - cen[..., None, :]
    v2 = np.roll(pts, -1, axis=-2) - cen[..., None, :]
    cross = v1[..., 0] * v2[..., 1] - v1[..., 1] * v2[..., 0]
    return cross.min(axis=-1) > 1e-12 * np.float_power(h, 2)


def subtriangulate(mesh: Mesh, cell_id) -> np.ndarray:
    """Simplicial submesh of one cell: an (ntri, 3, 2) array of positively
    oriented triangles (coordinates, not vertex ids).

    Triangles are themselves; other cells get a centroid fan when star-shaped
    with respect to their centroid, and an ear-clipping triangulation
    otherwise.  An array of the ids of cells of one vertex count, of a `Mesh`
    or a `CellShape`, gives their submeshes stacked, (ncells, ntri, 3, 2);
    they must all take the same kind of triangulation.
    """
    pts = mesh.cell_polygon(cell_id)
    n = pts.shape[-2]
    if n == 3:
        return pts[..., None, :, :].copy()
    cen = mesh.cell_centroid[cell_id]
    fan = _fan(pts, cen, mesh.cell_diameter[cell_id])
    if fan.all():
        return np.stack([np.broadcast_to(cen[..., None, :], pts.shape), pts,
                         np.roll(pts, -1, axis=-2)], axis=-2)
    if fan.any():
        raise MeshError("cells of one stack need the same kind of "
                        "triangulation")
    return np.array([_ear_clip(p) for p in pts.reshape(-1, n, 2)]).reshape(
        pts.shape[:-2] + (n - 2, 3, 2))


# -- validation ---------------------------------------------------------------


def validate(mesh: Mesh) -> ValidationReport:
    """Check all structural and geometric invariants; never raises.

    The shape-regularity estimate is min over sub-triangles S of
    min(r_S / h_S, h_S / h_K), with r_S the inradius and h_S the diameter.
    The cell checks run on the flat face table, and the sub-triangles are
    built one stacked `subtriangulate` call per vertex count and kind.
    """
    bad = []

    nrm = np.linalg.norm(mesh.face_normal, axis=1)
    for f in np.nonzero(np.abs(nrm - 1.0) > 1e-14)[0]:
        bad.append(f"face {f}: normal is not unit length")
    dots = np.abs(np.einsum("ij,ij->i", mesh.face_normal, mesh.face_tangent))
    for f in np.nonzero(dots > 1e-14)[0]:
        bad.append(f"face {f}: normal not perpendicular to the segment")

    counts = np.sum(mesh.face_cells >= 0, axis=1)
    for f in np.nonzero((counts < 1) | (counts > 2))[0]:
        bad.append(f"face {f}: face adjacency ({counts[f]} cells)")
    face, sign, ptr = mesh.cell_face, mesh.cell_face_sign, mesh.cell_ptr
    for f in np.sort(face[mesh.is_boundary_face[face] & (sign != 1)]):
        bad.append(f"face {f}: boundary normal does not point outward")

    # Cell checks, on the cells of nonzero area; face checks in loop order.
    sizes = np.diff(ptr)
    cell = np.repeat(np.arange(mesh.n_cells), sizes)
    hK = mesh.cell_diameter
    area, _ = _polygon_moments(mesh.vertices, ptr, mesh.cell_loop)
    ok = mesh.cell_area > 1e-12 * hK ** 2
    bad += [f"cell {c}: zero or degenerate area" for c in np.flatnonzero(~ok)]
    moved = ok & (np.abs(area - mesh.cell_area) > 1e-12 * hK ** 2)
    bad += [f"cell {c}: stored area disagrees with shoelace formula"
            for c in np.flatnonzero(moved)]
    long = ok[cell] & (mesh.face_length[face] > hK[cell] * (1 + 1e-12))
    bad += [f"cell {c}: face {f} longer than the cell diameter"
            for c, f in zip(cell[long], face[long])]
    # Signs versus geometry, on cells of at most four vertices: the outward
    # normal has positive flux through the loop.
    out = sign[:, None] * mesh.face_normal[face]
    gap = mesh.face_midpoint[face] - mesh.cell_centroid[cell]
    inward = (ok[cell] & (sizes[cell] <= 4)
              & (np.einsum("ij,ij->i", out, gap) <= 0))
    bad += [f"cell {c}: sign of face {f} disagrees with geometry"
            for c, f in zip(cell[inward], face[inward])]

    euler = mesh.n_vertices - mesh.n_faces + mesh.n_cells
    if euler != 1:
        bad.append(f"Euler relation violated: V - E + C = {euler}, expected 1")

    total = float(np.sum(mesh.cell_area))
    if abs(total - mesh.domain_area()) > 1e-10:
        bad.append(f"cell areas sum to {total}, boundary encloses "
                   f"{mesh.domain_area()}")

    tris, h_of = [], []
    try:
        for m in np.unique(sizes):
            ids = np.flatnonzero(sizes == m)
            fan = _fan(mesh.cell_polygon(ids), mesh.cell_centroid[ids],
                       hK[ids])
            for part in (ids[fan], ids[~fan]):
                if len(part):
                    t = subtriangulate(mesh, part)
                    tris.append(t.reshape(-1, 3, 2))
                    h_of.append(np.repeat(hK[part], t.shape[1]))
    except MeshError as err:
        bad.append(f"sub-triangulation failed: {err}")
        return ValidationReport(bad, 0.0)
    if not tris:
        return ValidationReport(bad, float("inf"))
    t = np.concatenate(tris)
    e = np.linalg.norm(t - t[:, [1, 2, 0]], axis=2)
    ab, ac = t[:, 1] - t[:, 0], t[:, 2] - t[:, 0]
    area2 = np.abs(ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0])
    hS = e.max(axis=1)
    rS = area2 / e.sum(axis=1)   # inradius = 2*area / perimeter
    return ValidationReport(bad, float(min(np.min(rS / hS),
                                           np.min(hS / np.concatenate(h_of)))))


# -- IO ------------------------------------------------------------------------


def save_mesh(mesh: Mesh, path) -> None:
    """Write the mesh in the versioned JSON format (derived data not stored)."""
    adjacent = np.sum(mesh.face_cells >= 0, axis=1).tolist()
    faces, signs = mesh.cell_face.tolist(), mesh.cell_face_sign.tolist()
    bounds = zip(mesh.cell_ptr[:-1].tolist(), mesh.cell_ptr[1:].tolist())
    doc = {
        "format": MESH_FORMAT,
        "vertices": mesh.vertices.tolist(),
        "faces": [{"v": v, "cells": cells[:n]} for v, cells, n in
                  zip(mesh.face_vertices.tolist(), mesh.face_cells.tolist(),
                      adjacent)],
        "cells": [{"faces": faces[a:b], "signs": signs[a:b]}
                  for a, b in bounds],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))   # the C encoder; json.dump streams in Python


def load_mesh(path) -> Mesh:
    """Load a mesh from the JSON format, recomputing all derived data."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise MeshFormatError(f"{path}: parse error at line {err.lineno}, "
                                  f"column {err.colno}: {err.msg}") from err
    if not isinstance(doc, dict) or doc.get("format") != MESH_FORMAT:
        raise MeshFormatError(f"{path}: missing or unsupported 'format' field "
                              f"(expected {MESH_FORMAT!r})")
    for field in ("vertices", "faces", "cells"):
        if field not in doc:
            raise MeshFormatError(f"{path}: missing field {field!r}")
    try:
        face_vertices = [entry["v"] for entry in doc["faces"]]
        face_cell_lists = [entry["cells"] for entry in doc["faces"]]
        cell_faces = [entry["faces"] for entry in doc["cells"]]
        cell_signs = [entry["signs"] for entry in doc["cells"]]
        ptr, listed = _csr(face_cell_lists)
    except (KeyError, TypeError) as err:
        raise MeshFormatError(f"{path}: malformed entry ({err})") from err
    n = np.diff(ptr)
    bad = np.flatnonzero((n < 1) | (n > 2))
    if len(bad):
        raise MeshFormatError(f"{path}: face {bad[0]}: face adjacency "
                              f"({n[bad[0]]} cells listed)")
    mesh = Mesh(doc["vertices"], face_vertices, cell_faces, given_signs=cell_signs)
    stored = np.column_stack([listed[ptr[:-1]],
                              np.where(n == 2, listed[ptr[1:] - 1], -1)])
    bad = np.flatnonzero(np.any(np.sort(stored, axis=1)
                                != np.sort(mesh.face_cells, axis=1), axis=1))
    if len(bad):
        f = bad[0]
        derived = [int(c) for c in mesh.face_cells[f] if c >= 0]
        stored = sorted(face_cell_lists[f])
        raise MeshFormatError(f"{path}: face {f}: face adjacency "
                              f"(stored {stored}, derived {derived})")
    return mesh


def with_flipped_face(mesh: Mesh, face_id: int) -> Mesh:
    """Copy of the mesh with the stored orientation of one interior face reversed."""
    if mesh.is_boundary_face[face_id]:
        raise MeshError("only interior faces can be flipped")
    fv = np.array(mesh.face_vertices)
    fv[face_id] = fv[face_id][::-1]
    return Mesh._from_csr(mesh.vertices, fv, mesh.cell_ptr, mesh.cell_face)
