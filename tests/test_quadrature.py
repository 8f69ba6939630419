import numpy as np
import pytest

import hhobiharm as hb
from hhobiharm.quadrature import cell_rule, face_rule, segment_rule, triangle_rule

from conftest import polygon_monomial_integral

# Frozen with the Green's-theorem oracle in conftest (exact expansion):
#   integral of x^3 y over PENTAGON
PENTAGON_X3Y = 0.07386611666666666
PENTAGON_AREA = 0.715


class TestSegmentRule:
    def test_midpoint(self):
        r = segment_rule(1)
        assert r.points[0] == pytest.approx(0.5)
        assert r.weights[0] == pytest.approx(1.0)

    def test_cubic_two_points(self):
        r = segment_rule(2)
        val = r.weights @ r.points ** 3
        assert val == pytest.approx(0.25, abs=1e-15)

    def test_degree_seven_four_points(self):
        r = segment_rule(4)
        val = r.weights @ r.points ** 6
        assert val == pytest.approx(1.0 / 7.0, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 3, 8, 30])
    def test_exactness_sweep(self, n):
        r = segment_rule(n)
        for d in range(r.exact_degree + 1):
            assert r.weights @ r.points ** d == pytest.approx(
                1.0 / (d + 1), rel=1e-13)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            segment_rule(0)
        with pytest.raises(ValueError):
            segment_rule(31)


class TestTriangleRule:
    @pytest.mark.parametrize("degree", [0, 1, 2, 5, 9, 14, 20])
    def test_monomial_exactness(self, degree):
        from math import factorial

        r = triangle_rule(degree)
        assert np.all(r.weights > 0)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                # closed form on the reference simplex: a! b! / (a+b+2)!
                exact = factorial(a) * factorial(b) / factorial(a + b + 2)
                got = r.weights @ (r.points[:, 0] ** a * r.points[:, 1] ** b)
                assert got == pytest.approx(exact, rel=1e-12)


class TestCellRule:
    def test_degree0_total_weight(self):
        m = hb.build_rect_mesh(1, 1)
        r = cell_rule(m, 0, 0)
        assert np.sum(r.weights) == pytest.approx(1.0, rel=1e-13)

    def test_x2y2_unit_square(self):
        m = hb.build_rect_mesh(1, 1)
        r = cell_rule(m, 0, 4)
        got = r.weights @ (r.points[:, 0] ** 2 * r.points[:, 1] ** 2)
        assert got == pytest.approx(1.0 / 9.0, abs=1e-13)

    def test_pentagon_x3y_frozen_oracle(self, pentagon_mesh):
        r = cell_rule(pentagon_mesh, 0, 4)
        got = r.weights @ (r.points[:, 0] ** 3 * r.points[:, 1])
        assert got == pytest.approx(PENTAGON_X3Y, abs=1e-11)
        assert np.sum(r.weights) == pytest.approx(PENTAGON_AREA, rel=1e-13)

    @pytest.mark.parametrize("degree", [0, 1, 3, 6, 10])
    def test_monomial_exactness_sweep(self, degree, pentagon_mesh, vor16):
        for mesh, cells in ((pentagon_mesh, [0]), (vor16, [0, 7])):
            for c in cells:
                r = cell_rule(mesh, c, degree)
                assert np.all(r.weights > 0)
                verts = mesh.cell_polygon(c)
                for a in range(degree + 1):
                    for b in range(degree + 1 - a):
                        exact = polygon_monomial_integral(verts, a, b)
                        got = r.weights @ (r.points[:, 0] ** a
                                           * r.points[:, 1] ** b)
                        assert got == pytest.approx(exact, rel=1e-12, abs=1e-14)

    def test_cell_rule_matches_per_triangle_map(self, vor64):
        # The broadcast map must reproduce, bit for bit, the reference rule
        # mapped onto one sub-triangle at a time.
        nonconvex = hb.build_polygon_mesh(
            [[0, 0], [1, 0], [1, 1], [0.5, 0.2], [0, 1]])
        cases = [(hb.build_rect_mesh(3, 2), 4), (hb.build_tri_mesh(2), 5),
                 (vor64, 11), (nonconvex, 0)]
        for mesh, c in cases:
            for degree in (4, 6, 9):
                ref = triangle_rule(degree)
                pts, wts = [], []
                for a, b, cc in hb.subtriangulate(mesh, c):
                    jac = abs((b[0] - a[0]) * (cc[1] - a[1])
                              - (b[1] - a[1]) * (cc[0] - a[0]))
                    pts.append(a[None, :]
                               + np.outer(ref.points[:, 0], b - a)
                               + np.outer(ref.points[:, 1], cc - a))
                    wts.append(ref.weights * jac)
                r = cell_rule(mesh, c, degree)
                assert np.array_equal(r.points, np.concatenate(pts))
                assert np.array_equal(r.weights, np.concatenate(wts))

    def test_weights_sum_to_area(self, vor64):
        for c in range(0, vor64.n_cells, 7):
            r = cell_rule(vor64, c, 6)
            assert np.sum(r.weights) == pytest.approx(
                vor64.cell_area[c], rel=1e-13)


class TestFaceRule:
    def test_weights_sum_to_length(self, vor16):
        for f in range(0, vor16.n_faces, 5):
            r = face_rule(vor16, f, 7)
            assert np.sum(r.weights) == pytest.approx(
                vor16.face_length[f], rel=1e-13)

    def test_linear_exactness(self, rect22):
        f = 0
        r = face_rule(rect22, f, 3)
        mid = rect22.face_midpoint[f]
        got = r.weights @ r.points[:, 0]
        assert got == pytest.approx(mid[0] * rect22.face_length[f], rel=1e-14)
