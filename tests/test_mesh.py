import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay, Voronoi, cKDTree

import hhobiharm as hb
import hhobiharm.mesh as mesh_mod
from hhobiharm.mesh import (MeshError, MeshFormatError, _clipped_voronoi,
                            _csr, _polygon_moments, _voronoi_moments)

from conftest import DENTED_LOOPS, DENTED_VERTICES


def euler(mesh):
    return mesh.n_vertices - mesh.n_faces + mesh.n_cells


class TestRectMesh:
    def test_unit_square(self):
        m = hb.build_rect_mesh(1, 1)
        assert (m.n_cells, m.n_faces, m.n_vertices) == (1, 4, 4)
        assert m.cell_area[0] == pytest.approx(1.0, abs=1e-15)

    def test_2x2_counts(self, rect22):
        m = rect22
        assert (m.n_cells, m.n_faces, m.n_vertices) == (4, 12, 9)
        assert euler(m) == 1

    def test_4x4_diameters(self, rect44):
        assert np.allclose(rect44.cell_diameter, np.sqrt(2.0) / 4.0)

    def test_centroids_keep_their_digits_far_from_the_origin(self):
        # Small cells far from the origin: shoelace sums taken in absolute
        # coordinates lose digits to cancellation.
        m = hb.build_rect_mesh(200, 200)
        mean = m.vertices[np.array(m.cell_loops)].mean(axis=1)
        assert np.abs(m.cell_centroid - mean).max() <= 1e-13 * m.h_max

    def test_one_area_centroid_pass_per_cell(self, monkeypatch):
        calls = []
        orig = mesh_mod._polygon_moments

        def counting(*args):
            calls.append(1)
            return orig(*args)

        monkeypatch.setattr(mesh_mod, "_polygon_moments", counting)
        hb.build_rect_mesh(4, 4)
        assert len(calls) == 1

    def test_bad_args(self):
        with pytest.raises(MeshError):
            hb.build_rect_mesh(0, 3)


class TestPolygonMoments:
    @staticmethod
    def shoelace(pts):
        """Per-polygon reference, summed relative to the first vertex."""
        rel = pts - pts[0]
        x, y = rel.T
        xn, yn = np.roll(rel, -1, axis=0).T
        cross = x * yn - xn * y
        area = 0.5 * np.sum(cross)
        return area, pts[0] + np.array([np.sum((x + xn) * cross),
                                        np.sum((y + yn) * cross)]) / (6.0 * area)

    @pytest.mark.parametrize("maker", [lambda: hb.build_rect_mesh(3, 2),
                                       lambda: hb.build_tri_mesh(2),
                                       lambda: hb.build_voronoi_mesh(64, 3)])
    def test_matches_per_polygon_shoelace(self, maker):
        # Equal below 8 vertices, where np.sum adds in sequence as reduceat
        # does; from 8 terms np.sum sums pairwise.
        m = maker()
        area, cen = _polygon_moments(m.vertices, *_csr(m.cell_loops))
        for c, loop in enumerate(m.cell_loops):
            ref_area, ref_cen = self.shoelace(m.vertices[loop])
            if len(loop) < 8:
                assert area[c] == ref_area and np.array_equal(cen[c], ref_cen)
            assert np.isclose(area[c], ref_area, rtol=1e-14, atol=0)
            assert np.allclose(cen[c], ref_cen, rtol=0, atol=1e-16)

    def test_reversed_loops_negate_areas_and_keep_centroids(self, vor64):
        # Lloyd regions come in either orientation.
        for m in (vor64, hb.build_rect_mesh(3, 2), hb.build_tri_mesh(2)):
            area, cen = _polygon_moments(m.vertices, *_csr(m.cell_loops))
            r_area, r_cen = _polygon_moments(
                m.vertices, *_csr([loop[::-1] for loop in m.cell_loops]))
            assert np.allclose(r_area, -area, rtol=1e-13, atol=0)
            assert np.allclose(r_cen, cen, rtol=0, atol=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("apex", [(0.5, -1.0), (2.0, 0.0)],
                             ids=["clockwise", "zero-area"])
    def test_bad_orientation_or_area_names_the_cell(self, apex):
        verts = np.array([[0, 0], [1, 0], [0, 1], apex], float)
        with pytest.raises(MeshFormatError, match="cell 1: face loop is not "
                           "counterclockwise or encloses no area"):
            hb.Mesh.from_cell_loops(verts, [[0, 1, 2], [0, 1, 3]])


class TestTriMesh:
    def test_cell_count_sequence(self):
        assert hb.build_tri_mesh(4).n_cells == 32
        assert hb.build_tri_mesh(8).n_cells == 128

    def test_n1_counts(self):
        m = hb.build_tri_mesh(1)
        assert (m.n_cells, m.n_faces, m.n_vertices) == (2, 5, 4)
        assert euler(m) == 1

    def test_n128_counts(self):
        m = hb.build_tri_mesh(128)
        assert m.n_cells == 32768
        assert m.n_faces == 49408
        assert m.n_vertices == 16641


class TestVoronoiMesh:
    def test_single_cell_is_unit_square(self):
        m = hb.build_voronoi_mesh(1, 5, 0)
        assert m.n_cells == 1
        assert m.cell_area[0] == pytest.approx(1.0, abs=1e-12)
        assert sorted(map(tuple, m.cell_polygon(0))) == [
            (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]

    def test_structure_64(self, vor64):
        m = vor64
        assert m.n_cells == 64
        assert euler(m) == 1
        assert max(len(f) for f in m.cell_faces) <= 10
        assert hb.validate(m).ok

    def test_determinism(self, vor64):
        again = hb.build_voronoi_mesh(64, 42, 20)
        assert again == vor64

    def test_large_mesh_face_count(self):
        m = hb.build_voronoi_mesh(16384, 3, 20)
        assert m.n_cells == 16384
        assert abs(m.n_faces - 49014) <= 0.1 * 49014
        assert euler(m) == 1
        assert hb.validate(m).ok

    def test_generator_sweep_valid(self):
        for n, seed in [(4, 0), (25, 1), (100, 2)]:
            m = hb.build_voronoi_mesh(n, seed, 10)
            rep = hb.validate(m)
            assert rep.ok, rep.failures

    def test_degenerate_diagrams_retried(self, monkeypatch):
        # The first sweep of the first attempt and the final diagram of the
        # second fail; the third attempt succeeds.
        calls = {"_voronoi_moments": 0, "_clipped_voronoi": 0}

        def flaky(name):
            real = getattr(mesh_mod, name)

            def call(*args):
                calls[name] += 1
                if calls[name] == 1:
                    raise MeshError("unbounded or degenerate Voronoi region")
                return real(*args)
            return call

        for name in calls:
            monkeypatch.setattr(mesh_mod, name, flaky(name))
        m = hb.build_voronoi_mesh(9, 3, 2)
        assert m.n_cells == 9
        assert calls == {"_voronoi_moments": 1 + 2 + 2, "_clipped_voronoi": 2}

    def test_persistent_degeneracy_raises(self, monkeypatch):
        def broken(*args):
            raise MeshError("unbounded or degenerate Voronoi region")

        monkeypatch.setattr(mesh_mod, "_voronoi_moments", broken)
        monkeypatch.setattr(mesh_mod, "_clipped_voronoi", broken)
        for lloyd_iters in (2, 0):    # a sweep fails, or the final diagram
            with pytest.raises(MeshError, match="10 attempts"):
                hb.build_voronoi_mesh(9, 3, lloyd_iters)

    @pytest.mark.parametrize("band", [0.1, np.inf])
    def test_coincident_generators_raise(self, band):
        pts = np.random.default_rng(4).random((30, 2))
        pts[7] = pts[3]
        with pytest.raises(MeshError, match="degenerate"):
            _voronoi_moments(pts, band)


def _qhull_sizes(monkeypatch):
    """Record the number of points of every Qhull call of the mesh module,
    by kind: {"Delaunay": [...], "Voronoi": [...]}."""
    sizes = {"Delaunay": [], "Voronoi": []}

    def spy(kind, qhull):
        def call(points, *args, **kwargs):
            sizes[kind].append(len(points))
            return qhull(points, *args, **kwargs)
        return call

    monkeypatch.setattr(mesh_mod, "Delaunay", spy("Delaunay", Delaunay))
    monkeypatch.setattr(mesh_mod, "Voronoi", spy("Voronoi", Voronoi))
    return sizes


def _assert_same_cells(pts, band):
    """The banded sweep gives the moments of the full mirror's clipped
    cells, and the circumcentres of the triangles around each generator are
    the vertices of its clipped cell."""
    tris = []
    with pytest.MonkeyPatch.context() as mp:
        qhull = mesh_mod.Delaunay
        mp.setattr(mesh_mod, "Delaunay",
                   lambda points: tris.append(qhull(points)) or tris[-1])
        area, cen = _voronoi_moments(pts, band)
    vertices, regions = _clipped_voronoi(pts)
    area_full, cen_full = _polygon_moments(vertices, *_csr(regions))
    np.testing.assert_allclose(area, np.abs(area_full), rtol=0, atol=1e-13)
    np.testing.assert_allclose(cen, cen_full, rtol=0, atol=1e-13)

    # Circumcentre x of (p0, p1, p2): 2 (p_i - p0) . (x - p0) = |p_i - p0|^2.
    tri = tris[-1]
    corner = tri.points[tri.simplices]
    edge = corner[:, 1:] - corner[:, :1]
    rhs = (edge ** 2).sum(-1)[..., None]
    centre = corner[:, 0] + np.linalg.solve(2 * edge, rhs)[..., 0]
    owner = tri.simplices.ravel()
    order = np.argsort(owner, kind="stable")
    around = np.split(order // 3, np.cumsum(np.bincount(owner))[:-1])
    for a, reg in enumerate(regions):
        d = np.linalg.norm(centre[around[a]][:, None] - vertices[reg][None],
                           axis=2)
        assert max(d.min(axis=0).max(), d.min(axis=1).max()) <= 1e-13


class TestBandedMirror:
    """Lloyd sweeps reflect only the generators near each side."""

    @pytest.mark.parametrize("n, seed", [(1, 5), (2, 0), (3, 1), (64, 42), (2048, 5)])
    def test_same_cells_as_full_mirror(self, monkeypatch, n, seed):
        pts = np.random.default_rng(seed).random((n, 2))
        sizes = _qhull_sizes(monkeypatch)
        _assert_same_cells(pts, 1.5 * np.sqrt(1.0 / n))
        if n <= 2:   # the first band is already 1 or more: one full mirror
            assert sizes["Delaunay"] == [5 * n]

    def test_band_doubles_until_cells_are_inside(self, monkeypatch):
        # A cluster in the lower-left corner and one generator in the middle,
        # farther than the first band from every side: its region reaches
        # the upper and right sides, unbounded until the band takes it in.
        rng = np.random.default_rng(3)
        pts = np.vstack([0.05 * rng.random((40, 2)), [[0.5, 0.5]]])
        n = len(pts)
        sizes = _qhull_sizes(monkeypatch)
        _assert_same_cells(pts, 1.5 * np.sqrt(1.0 / n))
        banded = sizes["Delaunay"]
        assert len(banded) >= 3
        assert banded == sorted(banded) and banded[-1] < 5 * n

    def test_lloyd_sweeps_reflect_few_points(self, monkeypatch):
        n = 2048
        sizes = _qhull_sizes(monkeypatch)
        m = hb.build_voronoi_mesh(n, 5, 20)
        assert m.n_cells == n
        assert sizes["Voronoi"] == [5 * n]   # the final diagram: full mirror
        banded = sizes["Delaunay"]
        assert len(banded) > 20 and max(banded) < 2 * n

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(n=st.integers(1, 200), cluster=st.integers(0, 100),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_generators(self, n, cluster, seed):
        # The first `cluster` generators (or all of them) crowd the lower-left
        # corner, which leaves the cells of the others larger than the band.
        pts = np.random.default_rng(seed).random((n, 2))
        pts[:cluster] *= 0.05
        area, _ = _voronoi_moments(pts, 1.5 * np.sqrt(1.0 / n))
        assert abs(area.sum() - 1.0) <= 1e-13
        _assert_same_cells(pts, 1.5 * np.sqrt(1.0 / n))


def _per_region_mesh(points):
    """The clipped Voronoi mesh of `points`, cleaned and oriented region by
    region: the reference for the CSR pass of `_voronoi_mesh_once`."""
    vor_vertices, regions = _clipped_voronoi(points)
    used = np.unique(np.concatenate(regions))
    verts = vor_vertices[used].copy()
    remap = np.full(len(vor_vertices), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    for val in (0.0, 1.0):
        verts[np.abs(verts - val) < 1e-12] = val
    alias = np.arange(len(verts))
    for a, b in sorted(cKDTree(verts).query_pairs(1e-9)):
        ra, rb = alias[a], alias[b]
        if ra != rb:
            alias[alias == max(ra, rb)] = min(ra, rb)
    keep = np.unique(alias)
    final = np.full(len(verts), -1, dtype=np.int64)
    final[keep] = np.arange(len(keep))
    verts = verts[keep]
    loops = []
    for reg in regions:
        loop = final[alias][remap[np.asarray(reg)]]
        loops.append([v for i, v in enumerate(loop) if v != loop[i - 1]])
    area, _ = _polygon_moments(verts, *_csr(loops))
    loops = [loop[::-1] if a < 0 else loop for loop, a in zip(loops, area)]
    return hb.Mesh.from_cell_loops(verts, loops)


def _assert_same_mesh(mesh, ref):
    assert mesh == ref
    for name in ("cell_loop", "cell_face_sign", "cell_area", "cell_centroid",
                 "face_cells"):
        assert np.array_equal(getattr(mesh, name), getattr(ref, name))


class TestFinalDiagram:
    @pytest.mark.parametrize("n, seed", [(64, 42), (2048, 5)])
    def test_csr_pass_matches_per_region_pass(self, monkeypatch, n, seed):
        seen = []
        once = mesh_mod._voronoi_mesh_once

        def spy(points, n_cells):
            seen.append(points.copy())
            return once(points, n_cells)

        monkeypatch.setattr(mesh_mod, "_voronoi_mesh_once", spy)
        mesh = hb.build_voronoi_mesh(n, seed)
        _assert_same_mesh(mesh, _per_region_mesh(seen[-1]))

    def test_merged_vertices_leave_the_loops(self):
        # Generators 1e-11 off a 6x6 grid: Qhull splits each grid vertex into
        # near-duplicates, which the merge folds back.
        grid = (np.arange(6) + 0.5) / 6
        pts = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
        pts += 1e-11 * np.random.default_rng(0).standard_normal(pts.shape)
        mesh = mesh_mod._voronoi_mesh_once(pts, 36)
        assert len(mesh.cell_loop) < sum(map(len, _clipped_voronoi(pts)[1]))
        _assert_same_mesh(mesh, _per_region_mesh(pts))


class TestInvariants:
    @pytest.mark.parametrize("maker", [
        lambda: hb.build_rect_mesh(3, 5),
        lambda: hb.build_tri_mesh(3),
        lambda: hb.build_voronoi_mesh(24, 9, 15),
    ])
    def test_generated_meshes(self, maker):
        m = maker()
        assert euler(m) == 1
        assert abs(np.sum(m.cell_area) - 1.0) < 1e-10
        for f in m.interior_faces():
            assert np.sum(m.face_cells[f] >= 0) == 2
        for c in range(m.n_cells):
            for f in m.cell_faces[c]:
                assert m.face_length[f] <= m.cell_diameter[c] * (1 + 1e-12)
        rep = hb.validate(m)
        assert rep.ok, rep.failures

    def test_normals_unit_and_perpendicular(self, vor64):
        n = vor64.face_normal
        t = vor64.face_tangent
        assert np.max(np.abs(np.linalg.norm(n, axis=1) - 1.0)) < 1e-14
        assert np.max(np.abs(np.einsum("ij,ij->i", n, t))) < 1e-14

    def test_boundary_normals_outward(self, vor64):
        for f in vor64.boundary_faces():
            c = vor64.face_cells[f, 0]
            assert vor64.cell_sign(c, f) == 1


class TestValidate:
    def test_rect_regularity(self, rect22):
        rep = hb.validate(rect22)
        assert rep.ok
        assert rep.shape_regularity > 0.2

    def test_single_square_euler(self):
        assert hb.validate(hb.build_rect_mesh(1, 1)).ok

    @pytest.mark.parametrize("maker", [
        lambda: hb.build_rect_mesh(3, 2), lambda: hb.build_voronoi_mesh(64, 3),
        lambda: hb.build_polygon_mesh([[0, 0], [1, 0], [1, 1], [0.5, 0.2], [0, 1]])])
    def test_shape_regularity_matches_per_triangle_loop(self, maker):
        m = maker()
        rho = np.inf
        for c in range(m.n_cells):
            for t in hb.subtriangulate(m, c):
                e = np.linalg.norm(t - np.roll(t, -1, axis=0), axis=1)
                area2 = abs((t[1, 0] - t[0, 0]) * (t[2, 1] - t[0, 1])
                            - (t[1, 1] - t[0, 1]) * (t[2, 0] - t[0, 0]))
                rho = min(rho, area2 / e.sum() / e.max(),
                          e.max() / m.cell_diameter[c])
        assert hb.validate(m).shape_regularity == rho

    def test_zero_area_cell_named(self):
        verts = [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1e-14]]
        m = hb.Mesh.from_cell_loops(np.array(verts, float),
                                    [[0, 1, 2, 3], [1, 4, 5]])
        rep = hb.validate(m)
        assert not rep.ok
        assert any("cell 1" in msg for msg in rep.failures)


class TestSubTriangulate:
    def test_unit_square_fan(self):
        m = hb.build_rect_mesh(1, 1)
        tris = hb.subtriangulate(m, 0)
        assert len(tris) == 4
        areas = [abs((t[1,0]-t[0,0])*(t[2,1]-t[0,1]) - (t[1,1]-t[0,1])*(t[2,0]-t[0,0])) / 2 for t in tris]
        assert np.allclose(areas, 0.25)

    def test_triangle_is_itself(self):
        m = hb.build_tri_mesh(1)
        tris = hb.subtriangulate(m, 0)
        assert len(tris) == 1

    def test_hexagon_additivity(self):
        ang = np.linspace(0, 2 * np.pi, 7)[:-1]
        verts = 0.5 + 0.4 * np.column_stack([np.cos(ang), np.sin(ang)])
        m = hb.build_polygon_mesh(verts)
        tris = hb.subtriangulate(m, 0)
        assert len(tris) == 6
        areas = [abs((t[1,0]-t[0,0])*(t[2,1]-t[0,1]) - (t[1,1]-t[0,1])*(t[2,0]-t[0,0])) / 2 for t in tris]
        assert np.isclose(np.sum(areas), m.cell_area[0], rtol=1e-13)

    def test_nonconvex_ear_clipping(self):
        verts = np.array([[0, 0], [1, 0], [1, 1], [0.5, 0.2], [0, 1]], float)
        m = hb.build_polygon_mesh(verts)
        tris = hb.subtriangulate(m, 0)
        areas = [abs((t[1,0]-t[0,0])*(t[2,1]-t[0,1]) - (t[1,1]-t[0,1])*(t[2,0]-t[0,0])) / 2 for t in tris]
        assert np.isclose(np.sum(areas), m.cell_area[0], rtol=1e-12)
        for t in tris:
            assert (t[1,0]-t[0,0])*(t[2,1]-t[0,1]) - (t[1,1]-t[0,1])*(t[2,0]-t[0,0]) > 0


class TestMeshIO:
    def test_unit_square_file_text(self, tmp_path):
        path = tmp_path / "m.json"
        hb.save_mesh(hb.build_rect_mesh(1, 1), path)
        assert path.read_text() == (
            '{"format": "hho-mesh-v1", '
            '"vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], '
            '"faces": [{"v": [0, 1], "cells": [0]}, {"v": [1, 3], "cells": [0]}, '
            '{"v": [3, 2], "cells": [0]}, {"v": [2, 0], "cells": [0]}], '
            '"cells": [{"faces": [0, 1, 2, 3], "signs": [1, 1, 1, 1]}]}')

    def test_round_trip(self, tmp_path, rect22, vor16):
        for mesh in (rect22, vor16):
            path = tmp_path / "m.json"
            hb.save_mesh(mesh, path)
            loaded = hb.load_mesh(path)
            assert loaded == mesh
            assert np.array_equal(loaded.vertices, mesh.vertices)

    def test_file_text_matches_per_entry_writer(self, tmp_path, vor64):
        path = tmp_path / "m.json"
        hb.save_mesh(vor64, path)
        m = vor64
        doc = {
            "format": "hho-mesh-v1",
            "vertices": [[float(x), float(y)] for x, y in m.vertices],
            "faces": [{"v": [int(a) for a in m.face_vertices[f]],
                       "cells": [int(c) for c in m.face_cells[f] if c >= 0]}
                      for f in range(m.n_faces)],
            "cells": [{"faces": [int(f) for f in m.cell_faces[c]],
                       "signs": [int(s) for s in m.cell_signs[c]]}
                      for c in range(m.n_cells)],
        }
        assert path.read_text() == json.dumps(doc)

    def test_stored_adjacency_must_match(self, tmp_path, rect22):
        path = tmp_path / "m.json"
        hb.save_mesh(rect22, path)
        doc = json.loads(path.read_text())
        f = int(rect22.interior_faces()[0])
        doc["faces"][f]["cells"] = [0, 3]
        path.write_text(json.dumps(doc))
        msg = (f"face {f}: face adjacency (stored [0, 3], derived "
               f"{rect22.face_cells[f].tolist()})")
        with pytest.raises(MeshFormatError, match=re.escape(msg)):
            hb.load_mesh(path)

    def test_face_with_three_cells(self, tmp_path, rect22):
        path = tmp_path / "m.json"
        hb.save_mesh(rect22, path)
        doc = json.loads(path.read_text())
        doc["faces"][0]["cells"] = [0, 1, 2]
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshFormatError, match="face adjacency"):
            hb.load_mesh(path)

    def test_unclosed_cell_loop(self, tmp_path, rect22):
        path = tmp_path / "m.json"
        hb.save_mesh(rect22, path)
        doc = json.loads(path.read_text())
        faces = doc["cells"][0]["faces"]
        faces[1], faces[2] = faces[2], faces[1]   # break the chaining
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshFormatError, match="not closed"):
            hb.load_mesh(path)

    def test_parse_error_has_location(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "hho-mesh-v1", "vertices": [[0, ')
        with pytest.raises(MeshFormatError, match="line"):
            hb.load_mesh(path)

    def test_missing_format(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"vertices": []}')
        with pytest.raises(MeshFormatError, match="format"):
            hb.load_mesh(path)


class TestFlip:
    def test_flip_preserves_geometry(self, vor16):
        f = int(vor16.interior_faces()[0])
        flipped = hb.with_flipped_face(vor16, f)
        assert np.array_equal(flipped.face_vertices[f],
                              vor16.face_vertices[f][::-1])
        assert np.allclose(flipped.face_normal[f], -vor16.face_normal[f])
        assert hb.validate(flipped).ok

    def test_flip_boundary_rejected(self, vor16):
        f = int(vor16.boundary_faces()[0])
        with pytest.raises(MeshError):
            hb.with_flipped_face(vor16, f)


class TestTranslationClasses:
    def test_voronoi_cells_have_no_translates(self, vor64):
        # Every cell is a class of one, numbered in cell order.
        labels = hb.translation_classes(vor64)
        assert np.array_equal(labels, np.arange(64))

    @pytest.mark.parametrize("mesh", [hb.build_rect_mesh(8, 8),
                                      hb.build_tri_mesh(4)])
    def test_uniform_meshes_have_at_most_two_classes(self, mesh):
        labels = hb.translation_classes(mesh)
        assert np.all(labels >= 0)
        assert 1 <= len(np.unique(labels)) <= 2

    def test_translates_share_a_class_whatever_the_face_orientation(self):
        mesh = hb.build_rect_mesh(3, 1)
        interface = int(mesh.interior_faces()[1])
        for m in (mesh, hb.with_flipped_face(mesh, interface)):
            labels = hb.translation_classes(m)
            assert labels[0] >= 0 and np.all(labels == labels[0])
            signs = {tuple(s) for s in m.cell_signs}
            assert len(signs) > 1

    @pytest.mark.parametrize("shift,splits", [(1e-9, True), (1e-14, False)])
    def test_moving_a_vertex_splits_the_class(self, shift, splits):
        mesh = hb.build_rect_mesh(3, 3)
        h = mesh.cell_diameter[0]
        verts = np.array(mesh.vertices)
        v = 5                      # interior vertex shared by cells 0, 1, 3, 4
        verts[v] += shift * h * np.array([1.0, 0.5])
        moved = hb.Mesh.from_cell_loops(verts, [list(l) for l in mesh.cell_loops])
        labels = hb.translation_classes(moved)
        near = [0, 1, 3, 4]
        far = [2, 5, 6, 7, 8]
        assert np.all(labels[far] == labels[far[0]])
        if splits:
            # Four classes of one, numbered in the order of their first cells.
            assert len(set(labels[near])) == 4
            assert set(labels[near]).isdisjoint(labels[far])
            assert np.array_equal(labels, [0, 1, 2, 3, 4, 2, 2, 2, 2])
        else:
            assert np.all(labels == labels[0])


# -- per-cell reference of the mesh construction ----------------------------


def _reference_faces(loops):
    """Faces of `Mesh.from_cell_loops`, numbered cell by cell through a dict
    in order of first appearance, each oriented as its first cell runs it."""
    index, face_vertices, cell_faces = {}, [], []
    for loop in loops:
        loop = list(loop)
        faces = []
        for a, b in zip(loop, loop[1:] + loop[:1]):
            f = index.setdefault((min(a, b), max(a, b)), len(face_vertices))
            if f == len(face_vertices):
                face_vertices.append((a, b))
            faces.append(f)
        cell_faces.append(faces)
    return np.array(face_vertices), cell_faces


def _reference_topology(vertices, face_vertices, cell_faces):
    """Loops, signs, outward boundary faces, adjacency and diameters of a
    `Mesh`, one cell and one face at a time."""
    fv = np.array(face_vertices)
    loops, signs = [], []
    for faces in cell_faces:
        pairs = [tuple(fv[f]) for f in faces]
        shared = set(pairs[0]) & set(pairs[1])
        assert len(shared) == 1
        cur = (set(pairs[0]) - shared).pop()
        loop, sgn = [], []
        for a, b in pairs:
            assert cur in (a, b)
            loop.append(cur)
            sgn.append(1 if a == cur else -1)
            cur = b if a == cur else a
        assert cur == loop[0]
        loops.append(loop)
        signs.append(sgn)
    adjacent = [[] for _ in fv]
    for c, faces in enumerate(cell_faces):
        for f in faces:
            adjacent[f].append(c)
    for f, adj in enumerate(adjacent):
        if len(adj) == 1:
            c = adj[0]
            pos = list(cell_faces[c]).index(f)
            if signs[c][pos] == -1:
                fv[f] = fv[f][::-1]
                signs[c][pos] = 1
    diameter = []
    for loop in loops:
        pts = vertices[loop]
        d = pts[:, None, :] - pts[None, :, :]
        diameter.append(np.sqrt((d ** 2).sum(axis=2).max()))
    face_cells = [adj + [-1] * (2 - len(adj)) for adj in adjacent]
    return fv, np.array(face_cells), loops, signs, np.array(diameter)


def assert_matches_reference(mesh, vertices, face_vertices, cell_faces):
    """Every array of `mesh` equals, bit for bit, the per-cell reference
    built from the same vertices, faces and cell face lists."""
    vertices = np.asarray(vertices, dtype=np.float64)
    fv, face_cells, loops, signs, diameter = _reference_topology(
        vertices, face_vertices, cell_faces)
    assert np.array_equal(mesh.vertices, vertices)
    assert np.array_equal(mesh.face_vertices, fv)
    assert np.array_equal(mesh.face_cells, face_cells)
    for got, ref in ((mesh.cell_faces, cell_faces), (mesh.cell_loops, loops),
                     (mesh.cell_signs, signs)):
        assert len(got) == len(ref)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))
    area, centroid = _polygon_moments(vertices, *_csr(loops))
    assert np.array_equal(mesh.cell_area, area)
    assert np.array_equal(mesh.cell_centroid, centroid)
    assert np.array_equal(mesh.cell_diameter, diameter)
    dvec = vertices[fv[:, 1]] - vertices[fv[:, 0]]
    tangent = dvec / np.linalg.norm(dvec, axis=1)[:, None]
    assert np.array_equal(mesh.face_tangent, tangent)
    assert np.array_equal(mesh.face_normal,
                          np.column_stack([tangent[:, 1], -tangent[:, 0]]))


def _built_from_loops(monkeypatch, maker):
    """A generated mesh and the (vertices, loops) it was built from."""
    seen = []
    build = hb.Mesh.from_cell_loops

    def spy(vertices, loops):
        seen.append((np.array(vertices), [list(loop) for loop in loops]))
        return build(vertices, loops)

    monkeypatch.setattr(hb.Mesh, "from_cell_loops", staticmethod(spy))
    mesh = maker()
    monkeypatch.undo()
    return mesh, seen[-1]


def _jittered_rect_loops(nx, ny, seed):
    """Vertices and loops of an nx-by-ny rectangle mesh: interior vertices
    moved by less than 0.2 h, vertices relabelled and each loop started at
    a random vertex, all from `seed`."""
    rng = np.random.default_rng(seed)
    mesh = hb.build_rect_mesh(nx, ny)
    verts = np.array(mesh.vertices)
    inner = np.all((verts > 0) & (verts < 1), axis=1)
    h = min(1.0 / nx, 1.0 / ny)
    verts[inner] += rng.uniform(-0.2, 0.2, (inner.sum(), 2)) * h / np.sqrt(2)
    perm = rng.permutation(len(verts))
    moved = np.empty_like(verts)
    moved[perm] = verts
    loops = [np.roll(perm[loop], -rng.integers(len(loop))).tolist()
             for loop in mesh.cell_loops]
    return moved, loops


class TestConstructionOracle:
    """The vectorized construction gives, bit for bit, the arrays of the
    per-cell reference: dict face numbering, faces chained into loops, signs
    against the loop, boundary faces flipped outward, per-cell diameters."""

    @pytest.mark.parametrize("maker", [
        lambda: hb.build_rect_mesh(32, 28), lambda: hb.build_tri_mesh(8),
        lambda: hb.build_voronoi_mesh(256, 11),
        lambda: hb.Mesh.from_cell_loops(DENTED_VERTICES, DENTED_LOOPS)],
        ids=["rect32x28", "tri8", "vor256", "dented"])
    def test_generated_meshes(self, monkeypatch, maker):
        mesh, (vertices, loops) = _built_from_loops(monkeypatch, maker)
        fv, cell_faces = _reference_faces(loops)
        assert_matches_reference(mesh, vertices, fv, cell_faces)

    @pytest.mark.parametrize("mesh", [hb.build_voronoi_mesh(256, 11),
                                      hb.build_rect_mesh(5, 4)])
    def test_flipped_face(self, mesh):
        f = int(mesh.interior_faces()[7])
        flipped = hb.with_flipped_face(mesh, f)
        fv = np.array(mesh.face_vertices)
        fv[f] = fv[f][::-1]
        assert_matches_reference(flipped, mesh.vertices, fv, mesh.cell_faces)

    def test_load_round_trip(self, tmp_path):
        mesh = hb.build_voronoi_mesh(256, 11)
        path = tmp_path / "m.json"
        hb.save_mesh(mesh, path)
        doc = json.loads(path.read_text())
        loaded = hb.load_mesh(path)
        assert_matches_reference(loaded, doc["vertices"],
                                 [face["v"] for face in doc["faces"]],
                                 [cell["faces"] for cell in doc["cells"]])
        assert loaded == mesh
        for name in ("face_cells", "cell_area", "cell_centroid",
                     "cell_diameter", "face_normal", "cell_face_sign",
                     "cell_loop"):
            assert np.array_equal(getattr(loaded, name), getattr(mesh, name))

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(nx=st.integers(1, 5), ny=st.integers(1, 5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_jittered_relabelled_rect_meshes(self, nx, ny, seed):
        vertices, loops = _jittered_rect_loops(nx, ny, seed)
        mesh = hb.Mesh.from_cell_loops(vertices, loops)
        fv, cell_faces = _reference_faces(loops)
        assert_matches_reference(mesh, vertices, fv, cell_faces)


class TestCellRows:
    def test_rows_stack_the_per_cell_views(self, vor64):
        sizes = np.diff(vor64.cell_ptr)
        cells = np.flatnonzero(sizes == 6)[:5]
        faces, signs, loops = vor64.cell_rows(cells)
        assert faces.shape == (5, 6)
        for i, c in enumerate(cells):
            assert np.array_equal(faces[i], vor64.cell_faces[c])
            assert np.array_equal(signs[i], vor64.cell_signs[c])
            assert np.array_equal(loops[i], vor64.cell_loops[c])

    def test_mixed_vertex_counts_rejected(self, vor64):
        sizes = np.diff(vor64.cell_ptr)
        cells = [np.flatnonzero(sizes == 5)[0], np.flatnonzero(sizes == 6)[0]]
        with pytest.raises(MeshError, match="vertex count"):
            vor64.cell_rows(cells)

    def test_topology_is_read_only(self, rect22):
        for arr in (rect22.cell_ptr, rect22.cell_face, rect22.cell_face_sign,
                    rect22.cell_loop, rect22.cell_faces[0]):
            with pytest.raises(ValueError):
                arr[0] = 1
