"""Polygonal meshes of (0,1)^2: data model, generators, JSON IO, validation.

Cells are simple polygons stored as counterclockwise loops of faces.  Every
face is a straight segment shared by one (boundary) or two (interface) cells
and carries a fixed unit normal; boundary faces are oriented so their normal
points out of the domain.  The per-cell signs sigma = n_F . n_K recover the
outward normal of each cell from the stored face normal.

The areas and centroids of all polygons come from one flattened shoelace
pass, `_polygon_moments`, used by mesh construction, the Voronoi generator
(orientation and Lloyd sweeps) and `validate`.

Meshes are immutable after construction and safe for concurrent reads.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Voronoi, cKDTree
from scipy.spatial._qhull import QhullError

__all__ = [
    "Mesh", "CellShape", "ValidationReport",
    "MeshError", "MeshFormatError",
    "build_rect_mesh", "build_tri_mesh", "build_voronoi_mesh",
    "build_polygon_mesh", "load_mesh", "save_mesh", "validate",
    "subtriangulate", "translation_classes", "class_members",
    "with_flipped_face",
]

MESH_FORMAT = "hho-mesh-v1"

# Relative tolerance of `translation_classes`: vertex offsets in units of the
# cell diameter, and diameters.
SHAPE_TOL = 1e-12


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


def _loop_from_faces(face_vertices, face_ids, cell_id):
    """Chain an ordered face list into a closed vertex loop."""
    m = len(face_ids)
    if m < 3:
        raise MeshFormatError(f"cell {cell_id}: fewer than 3 faces")
    pairs = [tuple(face_vertices[f]) for f in face_ids]
    first, second = set(pairs[0]), set(pairs[1])
    shared = first & second
    if len(shared) != 1:
        raise MeshFormatError(f"cell {cell_id}: cell boundary not closed "
                              f"(faces {face_ids[0]} and {face_ids[1]} share "
                              f"{len(shared)} vertices)")
    start = (first - shared).pop()
    loop = [start]
    cur = start
    for pos, (a, b) in enumerate(pairs):
        if cur == a:
            nxt = b
        elif cur == b:
            nxt = a
        else:
            raise MeshFormatError(f"cell {cell_id}: cell boundary not closed "
                                  f"(face {face_ids[pos]} does not continue the loop)")
        loop.append(nxt)
        cur = nxt
    if loop[-1] != start:
        raise MeshFormatError(f"cell {cell_id}: cell boundary not closed")
    return np.array(loop[:-1], dtype=np.int64)


def _polygon_moments(points, loops):
    """Signed area and centroid of every polygon in one flattened pass.

    `loops` lists vertex ids into `points`, in either orientation: its sign
    cancels between the area and the first moments.  The shoelace sums run
    relative to each loop's first vertex: in absolute coordinates a small
    cell far from the origin loses digits to cancellation.  A zero area gives
    a non-finite centroid and no warning.
    """
    counts = np.array([len(loop) for loop in loops], dtype=np.int64)
    idx = np.concatenate(loops or [np.zeros(0, np.int64)])
    ends = np.cumsum(counts)
    starts = ends - counts
    nxt = np.arange(1, len(idx) + 1)
    nxt[ends - 1] = starts
    first = points[idx[starts]]
    rel = points[idx] - np.repeat(first, counts, axis=0)
    x, y = rel.T
    xn, yn = rel[nxt].T
    cross = x * yn - xn * y
    area = 0.5 * np.add.reduceat(cross, starts)
    with np.errstate(divide="ignore", invalid="ignore"):
        cx = np.add.reduceat((x + xn) * cross, starts) / (6.0 * area)
        cy = np.add.reduceat((y + yn) * cross, starts) / (6.0 * area)
    return area, first + np.column_stack([cx, cy])


class Mesh:
    """Conforming polygonal mesh (struct-of-arrays storage, immutable)."""

    def __init__(self, vertices, face_vertices, cell_faces, given_signs=None):
        vertices = np.asarray(vertices, dtype=np.float64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshFormatError("vertices must be an (n, 2) array")
        if not np.all(np.isfinite(vertices)):
            raise MeshFormatError("vertices contain non-finite coordinates")
        face_vertices = np.array(face_vertices, dtype=np.int64)
        if face_vertices.ndim != 2 or face_vertices.shape[1] != 2:
            raise MeshFormatError("faces must be an (n, 2) index array")

        nv, nf, nc = len(vertices), len(face_vertices), len(cell_faces)
        if nf and (face_vertices.min() < 0 or face_vertices.max() >= nv):
            raise MeshFormatError("face references an unknown vertex")

        # Face adjacency from the cell face lists.
        face_cells = [[] for _ in range(nf)]
        for c, faces in enumerate(cell_faces):
            for f in faces:
                if f < 0 or f >= nf:
                    raise MeshFormatError(f"cell {c}: face adjacency "
                                          f"(unknown face id {f})")
                face_cells[f].append(c)
        for f, adj in enumerate(face_cells):
            if len(adj) not in (1, 2):
                raise MeshFormatError(f"face {f}: face adjacency "
                                      f"({len(adj)} incident cells, expected 1 or 2)")

        # Vertex loops, orientation, and signs.
        loops = [_loop_from_faces(face_vertices, faces, c)
                 for c, faces in enumerate(cell_faces)]
        self.cell_area, self.cell_centroid = _polygon_moments(vertices, loops)
        bad = np.flatnonzero(~(self.cell_area > 0))
        if len(bad):
            raise MeshFormatError(f"cell {bad[0]}: face loop is not "
                                  f"counterclockwise or encloses no area")
        signs = []
        for loop, faces in zip(loops, cell_faces):
            sgn = []
            cur = loop[0]
            for f in faces:
                a, b = face_vertices[f]
                sgn.append(1 if a == cur else -1)
                cur = b if a == cur else a
            signs.append(np.array(sgn, dtype=np.int64))

        if given_signs is not None:
            for c, (got, exp) in enumerate(zip(given_signs, signs)):
                if list(got) != list(exp):
                    raise MeshFormatError(f"cell {c}: stored face signs disagree "
                                          f"with geometry")

        # Normalize boundary faces to point outward (n_F = n on the boundary).
        for f, adj in enumerate(face_cells):
            if len(adj) == 1:
                c = adj[0]
                pos = list(cell_faces[c]).index(f)
                if signs[c][pos] == -1:
                    face_vertices[f] = face_vertices[f][::-1]
                    signs[c][pos] = 1

        self.vertices = vertices
        self.face_vertices = face_vertices
        self.face_cells = np.full((nf, 2), -1, dtype=np.int64)
        for f, adj in enumerate(face_cells):
            self.face_cells[f, :len(adj)] = adj
        self.cell_faces = [np.array(fs, dtype=np.int64) for fs in cell_faces]
        self.cell_signs = signs
        self.cell_loops = loops

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

        self.cell_diameter = np.empty(nc)
        for c, loop in enumerate(loops):
            pts = vertices[loop]
            d = pts[:, None, :] - pts[None, :, :]
            self.cell_diameter[c] = np.sqrt((d ** 2).sum(axis=2).max())

        for arr in (self.vertices, self.face_vertices, self.face_cells,
                    self.face_length, self.face_tangent, self.face_normal,
                    self.face_midpoint, self.cell_centroid, self.cell_area,
                    self.cell_diameter):
            arr.flags.writeable = False

    # -- basic queries ------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.face_vertices)

    @property
    def n_cells(self):
        return len(self.cell_faces)

    @property
    def h_max(self):
        return float(self.cell_diameter.max())

    def boundary_faces(self):
        return np.nonzero(self.is_boundary_face)[0]

    def interior_faces(self):
        return np.nonzero(~self.is_boundary_face)[0]

    def cell_polygon(self, c: int) -> np.ndarray:
        return self.vertices[self.cell_loops[c]]

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
                and len(self.cell_faces) == len(other.cell_faces)
                and all(np.array_equal(a, b) for a, b in
                        zip(self.cell_faces, other.cell_faces)))

    def __repr__(self):
        return (f"Mesh({self.n_vertices} vertices, {self.n_faces} faces, "
                f"{self.n_cells} cells)")

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def from_cell_loops(vertices, loops):
        """Build a mesh from per-cell counterclockwise vertex loops.

        Faces are derived as the unique vertex pairs; each face keeps the
        orientation given by the first cell that traverses it.
        """
        face_index = {}
        face_vertices = []
        cell_faces = []
        for loop in loops:
            loop = list(loop)
            fs = []
            for a, b in zip(loop, loop[1:] + loop[:1]):
                key = (a, b) if a < b else (b, a)
                f = face_index.get(key)
                if f is None:
                    f = len(face_vertices)
                    face_index[key] = f
                    face_vertices.append((a, b))
                fs.append(f)
            cell_faces.append(fs)
        return Mesh(vertices, np.array(face_vertices, dtype=np.int64), cell_faces)


class CellShape:
    """One mesh cell moved so that its centroid is the origin, as cell 0 of a
    one-cell mesh.

    It carries the `Mesh` attributes that the per-cell builders read (the
    quadrature rules, the bases and the local operators), without the cost of
    building and checking a `Mesh`.  Face a runs from loop vertex a to loop
    vertex a+1, so every sign is +1: this is the cell's loop frame.  The
    boundary flags are those of the cell's faces in the mesh; a boundary face
    is stored along the loop, so its normal points out of the domain here too.
    Operators built on it serve every cell of the translation class.
    """

    def __init__(self, mesh: Mesh, c: int):
        verts = mesh.vertices[mesh.cell_loops[c]] - mesh.cell_centroid[c]
        faces = mesh.cell_faces[c]
        sgn = mesh.cell_signs[c][:, None]
        m = len(verts)
        ids = np.arange(m)
        nxt = (ids + 1) % m
        self.vertices = verts
        self.face_vertices = np.column_stack([ids, nxt])
        self.face_length = mesh.face_length[faces]
        self.face_tangent = sgn * mesh.face_tangent[faces]
        self.face_normal = sgn * mesh.face_normal[faces]
        self.face_midpoint = 0.5 * (verts + verts[nxt])
        self.is_boundary_face = mesh.is_boundary_face[faces]
        self.cell_faces = [ids]
        self.cell_signs = [np.ones(m, dtype=np.int64)]
        self.cell_loops = [ids]
        self.cell_centroid = np.zeros((1, 2))
        self.cell_diameter = mesh.cell_diameter[c:c + 1]

    def cell_polygon(self, c: int) -> np.ndarray:
        return self.vertices

    def offset(self, mesh: Mesh, c: int) -> np.ndarray:
        """Translation that carries this shape onto cell c of `mesh`, first
        vertex onto first vertex."""
        return mesh.vertices[mesh.cell_loops[c][0]] - self.vertices[0]


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
    sizes = np.array([len(loop) for loop in mesh.cell_loops])
    # Per cell: position in its vertex-count group, and the window of that
    # group's cells sorted by diameter whose diameters agree with its own.
    pos, lo, hi = (np.empty(n, dtype=np.int64) for _ in range(3))
    groups = {}
    for m in np.unique(sizes):
        ids = np.nonzero(sizes == m)[0]
        loops = np.array([mesh.cell_loops[c] for c in ids])
        offsets = mesh.vertices[loops] - mesh.vertices[loops[:, :1]]
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


def _mirror_points(pts):
    """Original points plus reflections across the four sides of (0,1)^2."""
    refl = [pts * [-1, 1], pts * [-1, 1] + [2, 0],
            pts * [1, -1], pts * [1, -1] + [0, 2]]
    return np.vstack([pts] + refl)


def _clipped_voronoi(pts):
    """Voronoi cells of pts clipped exactly to (0,1)^2 via mirrored generators.

    Returns (vertex coordinates, list of ordered vertex-id loops).
    """
    vor = Voronoi(_mirror_points(pts))
    regions = []
    for i in range(len(pts)):
        reg = vor.regions[vor.point_region[i]]
        if len(reg) < 3 or -1 in reg:
            raise MeshError("unbounded or degenerate Voronoi region")
        regions.append(reg)
    return vor.vertices, regions


def _voronoi_mesh_once(points, n_cells):
    """Build a Mesh from the clipped Voronoi diagram of the given points."""
    vor_vertices, regions = _clipped_voronoi(points)
    used = np.unique(np.concatenate(regions))
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

    loops = []
    for reg in regions:
        loop = vertex_map[remap[np.asarray(reg)]]
        cleaned = [v for i, v in enumerate(loop) if v != loop[i - 1]]
        if len(cleaned) < 3:
            raise MeshError("degenerate Voronoi cell after vertex merging")
        loops.append(cleaned)
    area, _ = _polygon_moments(verts, loops)
    loops = [loop[::-1] if a < 0 else loop for loop, a in zip(loops, area)]
    mesh = Mesh.from_cell_loops(verts, loops)
    if mesh.n_cells != n_cells:
        raise MeshError("Voronoi generator lost cells")
    return mesh


def build_voronoi_mesh(n_cells: int, seed: int, lloyd_iters: int = 20) -> Mesh:
    """Lloyd-relaxed Voronoi partition of (0,1)^2 with n_cells polygons.

    Generator points are drawn uniformly from a seeded RNG, the diagram is
    clipped exactly to the unit square by mirroring the generators across its
    sides, and `lloyd_iters` centroidal relaxation sweeps are applied.  The
    result is a pure function of (n_cells, seed, lloyd_iters).  Degenerate
    point sets are retried with perturbed seeds, up to 10 attempts.
    """
    if n_cells < 1:
        raise MeshError("n_cells must be positive")
    rng = np.random.default_rng(seed)
    points = rng.random((n_cells, 2))
    last_err = None
    for _ in range(10):
        try:
            pts = points
            for _ in range(lloyd_iters):
                vor_vertices, regions = _clipped_voronoi(pts)
                _, pts = _polygon_moments(vor_vertices, regions)
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


def subtriangulate(mesh: Mesh, cell_id: int) -> np.ndarray:
    """Simplicial submesh of one cell: an (ntri, 3, 2) array of positively
    oriented triangles (coordinates, not vertex ids).

    Triangles are themselves; other cells get a centroid fan when star-shaped
    with respect to their centroid, and an ear-clipping triangulation
    otherwise.
    """
    pts = mesh.cell_polygon(cell_id)
    n = len(pts)
    if n == 3:
        return pts[None].copy()
    cen = mesh.cell_centroid[cell_id]
    h2 = mesh.cell_diameter[cell_id] ** 2
    nxt = np.arange(1, n + 1) % n
    v1 = pts - cen
    v2 = pts[nxt] - cen
    cross = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
    if np.all(cross > 1e-12 * h2):
        return np.stack([np.broadcast_to(cen, (n, 2)), pts, pts[nxt]], axis=1)
    return _ear_clip(pts)


# -- validation ---------------------------------------------------------------


def validate(mesh: Mesh) -> ValidationReport:
    """Check all structural and geometric invariants; never raises.

    The shape-regularity estimate is min over sub-triangles S of
    min(r_S / h_S, h_S / h_K), with r_S the inradius and h_S the diameter.
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
    for f in mesh.boundary_faces():
        c = mesh.face_cells[f, 0]
        if mesh.cell_sign(c, f) != 1:
            bad.append(f"face {f}: boundary normal does not point outward")

    area, _ = _polygon_moments(mesh.vertices, mesh.cell_loops)
    for c in range(mesh.n_cells):
        hK = mesh.cell_diameter[c]
        if mesh.cell_area[c] <= 1e-12 * hK ** 2:
            bad.append(f"cell {c}: zero or degenerate area")
            continue
        if abs(area[c] - mesh.cell_area[c]) > 1e-12 * hK ** 2:
            bad.append(f"cell {c}: stored area disagrees with shoelace formula")
        for f in mesh.cell_faces[c]:
            if mesh.face_length[f] > hK * (1 + 1e-12):
                bad.append(f"cell {c}: face {f} longer than the cell diameter")
        # Signs versus geometry, on cells of at most four vertices: the
        # outward normal has positive flux through the loop.
        if len(mesh.cell_loops[c]) > 4:
            continue
        cen = mesh.cell_centroid[c]
        for f, s in zip(mesh.cell_faces[c], mesh.cell_signs[c]):
            out = s * mesh.face_normal[f]
            if np.dot(out, mesh.face_midpoint[f] - cen) <= 0:
                bad.append(f"cell {c}: sign of face {f} disagrees with geometry")

    euler = mesh.n_vertices - mesh.n_faces + mesh.n_cells
    if euler != 1:
        bad.append(f"Euler relation violated: V - E + C = {euler}, expected 1")

    total = float(np.sum(mesh.cell_area))
    if abs(total - mesh.domain_area()) > 1e-10:
        bad.append(f"cell areas sum to {total}, boundary encloses "
                   f"{mesh.domain_area()}")

    try:
        tris = [subtriangulate(mesh, c) for c in range(mesh.n_cells)]
    except MeshError as err:
        bad.append(f"sub-triangulation failed: {err}")
        return ValidationReport(bad, 0.0)
    if not tris:
        return ValidationReport(bad, float("inf"))
    hK = np.repeat(mesh.cell_diameter, [len(t) for t in tris])
    t = np.concatenate(tris)
    e = np.linalg.norm(t - t[:, [1, 2, 0]], axis=2)
    ab, ac = t[:, 1] - t[:, 0], t[:, 2] - t[:, 0]
    area2 = np.abs(ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0])
    hS = e.max(axis=1)
    rS = area2 / e.sum(axis=1)   # inradius = 2*area / perimeter
    return ValidationReport(bad, float(min(np.min(rS / hS), np.min(hS / hK))))


# -- IO ------------------------------------------------------------------------


def save_mesh(mesh: Mesh, path) -> None:
    """Write the mesh in the versioned JSON format (derived data not stored)."""
    doc = {
        "format": MESH_FORMAT,
        "vertices": [[float(x), float(y)] for x, y in mesh.vertices],
        "faces": [{"v": [int(a) for a in mesh.face_vertices[f]],
                   "cells": [int(c) for c in mesh.face_cells[f] if c >= 0]}
                  for f in range(mesh.n_faces)],
        "cells": [{"faces": [int(f) for f in mesh.cell_faces[c]],
                   "signs": [int(s) for s in mesh.cell_signs[c]]}
                  for c in range(mesh.n_cells)],
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
    except (KeyError, TypeError) as err:
        raise MeshFormatError(f"{path}: malformed entry ({err})") from err
    for f, adj in enumerate(face_cell_lists):
        if len(adj) not in (1, 2):
            raise MeshFormatError(f"{path}: face {f}: face adjacency "
                                  f"({len(adj)} cells listed)")
    mesh = Mesh(doc["vertices"], face_vertices, cell_faces, given_signs=cell_signs)
    for f, adj in enumerate(face_cell_lists):
        stored = sorted(adj)
        derived = sorted(int(c) for c in mesh.face_cells[f] if c >= 0)
        if stored != derived:
            raise MeshFormatError(f"{path}: face {f}: face adjacency "
                                  f"(stored {stored}, derived {derived})")
    return mesh


def with_flipped_face(mesh: Mesh, face_id: int) -> Mesh:
    """Copy of the mesh with the stored orientation of one interior face reversed."""
    if mesh.is_boundary_face[face_id]:
        raise MeshError("only interior faces can be flipped")
    fv = np.array(mesh.face_vertices)
    fv[face_id] = fv[face_id][::-1]
    return Mesh(mesh.vertices, fv, [list(fs) for fs in mesh.cell_faces])
