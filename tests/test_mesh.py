import json

import numpy as np
import pytest

import hhobiharm as hb
from hhobiharm.mesh import MeshError, MeshFormatError, _polygon_moments


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
        import hhobiharm.mesh as mesh_mod
        calls = []
        orig = mesh_mod._polygon_moments

        def counting(points, loops):
            calls.append(1)
            return orig(points, loops)

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
        area, cen = _polygon_moments(m.vertices, m.cell_loops)
        for c, loop in enumerate(m.cell_loops):
            ref_area, ref_cen = self.shoelace(m.vertices[loop])
            if len(loop) < 8:
                assert area[c] == ref_area and np.array_equal(cen[c], ref_cen)
            assert np.isclose(area[c], ref_area, rtol=1e-14, atol=0)
            assert np.allclose(cen[c], ref_cen, rtol=0, atol=1e-16)

    def test_reversed_loops_negate_areas_and_keep_centroids(self, vor64):
        # Lloyd regions come in either orientation.
        for m in (vor64, hb.build_rect_mesh(3, 2), hb.build_tri_mesh(2)):
            area, cen = _polygon_moments(m.vertices, m.cell_loops)
            r_area, r_cen = _polygon_moments(
                m.vertices, [loop[::-1] for loop in m.cell_loops])
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

    def test_generator_sweep_valid(self):
        for n, seed in [(4, 0), (25, 1), (100, 2)]:
            m = hb.build_voronoi_mesh(n, seed, 10)
            rep = hb.validate(m)
            assert rep.ok, rep.failures

    def test_degenerate_diagrams_retried(self, monkeypatch):
        import hhobiharm.mesh as mesh_mod

        real = mesh_mod._clipped_voronoi
        calls = {"n": 0}

        def flaky(pts):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise MeshError("unbounded or degenerate Voronoi region")
            return real(pts)

        monkeypatch.setattr(mesh_mod, "_clipped_voronoi", flaky)
        m = hb.build_voronoi_mesh(9, 3, 2)
        assert m.n_cells == 9
        assert calls["n"] > 2

    def test_persistent_degeneracy_raises(self, monkeypatch):
        import hhobiharm.mesh as mesh_mod

        def broken(pts):
            raise MeshError("unbounded or degenerate Voronoi region")

        monkeypatch.setattr(mesh_mod, "_clipped_voronoi", broken)
        with pytest.raises(MeshError, match="10 attempts"):
            hb.build_voronoi_mesh(9, 3, 2)


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
