import numpy as np
import pytest
import scipy.linalg as sla

import hhobiharm as hb
from hhobiharm.assembly import BoundaryData, assemble
from hhobiharm.common import ConfigError
from hhobiharm.localops import (_CellWork, build_local_matrices,
                                build_reconstruction, build_seminorm_gram,
                                build_stabilization, elliptic_projection_oracle,
                                local_seminorm, make_layout, reduce_cell,
                                rigid_modes, space_degrees)
from hhobiharm.mesh import CellShape, shape_batches
from hhobiharm.polyspace import (FACE_ORDERS_2, FACE_ORDERS_3, CellBasis,
                                 FaceBasis, face_derivatives, project_cell,
                                 space_dim)
from hhobiharm.quadrature import (BC_EXTRA_DEGREE, cell_rule, face_degree,
                                  face_rule)
from hhobiharm.solving import error_norms, reconstruct_field

from conftest import DENTED, random_smooth_family

VARIANTS = ("A", "B", "C")


def poly_data(degree, seed):
    case = hb.random_polynomial_case(degree, seed)
    return case.u, case.grad, case.hess


class TestLayout:
    def test_space_degrees(self):
        assert space_degrees("A", 2) == (4, 3, 2)
        assert space_degrees("B", 2) == (4, 4, 2)
        assert space_degrees("C", 2) == (3, 3, 2)

    def test_dims_unit_square_k0(self):
        m = hb.build_rect_mesh(1, 1)
        lay = make_layout(m, 0, "A", 0)
        assert lay.cell_dim == 6
        assert lay.n_total == 6 + 4 * 2 + 4 * 1
        lay = make_layout(m, 0, "B", 0)
        assert lay.n_total == 6 + 4 * 3 + 4 * 1

    def test_nitsche_boundary_faces_carry_nothing(self, vor16):
        cells_b = [c for c in range(vor16.n_cells)
                   if any(vor16.is_boundary_face[f] for f in vor16.cell_faces[c])]
        c = cells_b[0]
        lay = make_layout(vor16, c, "A", 1, nitsche=True)
        for a, f in enumerate(vor16.cell_faces[c]):
            if vor16.is_boundary_face[f]:
                assert lay.trace_dims[a] == 0
                assert lay.normal_dims[a] == 0
            else:
                assert lay.trace_dims[a] == 3

    def test_nitsche_variant_c_rejected(self, vor16):
        with pytest.raises(ConfigError):
            make_layout(vor16, 0, "C", 1, nitsche=True)


class TestReconstruction:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_two_path_equality(self, variant, k, vor16):
        for c in range(0, vor16.n_cells, 3):
            R1 = build_reconstruction(vor16, c, variant, k, path="ipp")
            R2 = build_reconstruction(vor16, c, variant, k, path="variational")
            assert np.linalg.norm(R1 - R2) <= 1e-10 * np.linalg.norm(R1)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_reproduces_reduced_polynomials(self, variant, vor16):
        # for v in P^{k+2}: R(reduction(v)) = v
        for k in (0, 1, 2):
            u, grad, hess = poly_data(k + 2, seed=k + 1)
            for c in (1, 8):
                R = build_reconstruction(vor16, c, variant, k)
                vhat = reduce_cell(vor16, c, u, grad, variant, k)
                got = R @ vhat
                rb = CellBasis.for_cell(vor16, c, k + 2)
                expected = project_cell(u, rb, cell_rule(vor16, c, 2 * k + 8)).coeffs
                scale = np.linalg.norm(expected)
                assert np.linalg.norm(got - expected) < 1e-11 * max(scale, 1.0)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_affine_triples_reproduced(self, variant, vor16):
        k = 1
        for c in (2, 9):
            lay = make_layout(vor16, c, variant, k)
            R = build_reconstruction(vor16, c, variant, k)
            for mode in rigid_modes(vor16, c, lay):
                got = R @ mode
                expected = np.zeros(space_dim(k + 2))
                expected[:lay.cell_dim] = mode[:lay.cell_dim]
                assert np.allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_matches_elliptic_projection_oracle(self, k, vor16):
        u, grad, hess = (lambda p: np.exp(p[:, 0] + 2 * p[:, 1]),
                         lambda p: np.column_stack([np.exp(p[:, 0] + 2 * p[:, 1]),
                                                    2 * np.exp(p[:, 0] + 2 * p[:, 1])]),
                         lambda p: np.column_stack([np.exp(p[:, 0] + 2 * p[:, 1]),
                                                    2 * np.exp(p[:, 0] + 2 * p[:, 1]),
                                                    4 * np.exp(p[:, 0] + 2 * p[:, 1])]))
        for c in (3, 12):
            ops = build_local_matrices(vor16, c, "A", k, check_kernel=False)
            vhat = reduce_cell(vor16, c, u, grad, "A", k)
            diff = ops.R @ vhat - elliptic_projection_oracle(u, hess, vor16, c, k).coeffs
            err = np.sqrt(max(diff @ ops.G @ diff, 0.0))
            assert err < 1e-10


class TestReduction:
    def test_affine_exact(self, vor16):
        u, grad, _ = poly_data(1, seed=2)
        c = 4
        lay = make_layout(vor16, c, "A", 1)
        vhat = reduce_cell(vor16, c, u, grad, "A", 1)
        # cell part reproduces the affine function
        cb = CellBasis.for_cell(vor16, c, 3)
        vals = cb.eval(vor16.cell_polygon(c))[:, :lay.cell_dim] @ vhat[lay.cell_slice]
        assert np.allclose(vals, u(vor16.cell_polygon(c)), atol=1e-12)

    def test_x_squared_k0_unit_square(self):
        m = hb.build_rect_mesh(1, 1)

        def u(p):
            return p[:, 0] ** 2

        def grad(p):
            return np.column_stack([2 * p[:, 0], np.zeros(len(p))])

        vhat = reduce_cell(m, 0, u, grad, "A", 0)
        lay = make_layout(m, 0, "A", 0)
        # cell block: exact projection of x^2 onto P^2 is x^2 itself
        cb = CellBasis.for_cell(m, 0, 2)
        pts = np.array([[0.3, 0.7], [0.9, 0.1]])
        assert np.allclose(cb.eval(pts) @ vhat[lay.cell_slice], u(pts), atol=1e-13)
        right = [a for a, f in enumerate(m.cell_faces[0])
                 if np.allclose(m.face_midpoint[f], [1.0, 0.5])][0]
        # trace on the face x=1: v|_F = 1, its degree-1 interpolation is 1
        tr = vhat[lay.trace_slice(right)]
        assert tr[0] == pytest.approx(1.0, abs=1e-13)
        assert tr[1] == pytest.approx(0.0, abs=1e-13)
        # normal component: projection of d_n v = 2x at x=1 onto constants
        assert vhat[lay.normal_slice(right)][0] == pytest.approx(2.0, abs=1e-13)

    def test_smooth_components_match_projection_oracles(self, vor16):
        u, grad, _ = random_smooth_family(17)
        k, c = 2, 6
        vhat = reduce_cell(vor16, c, u, grad, "A", k)
        lay = make_layout(vor16, c, "A", k)
        for a, f in enumerate(vor16.cell_faces[c]):
            nb = FaceBasis.for_face(vor16, f, k)
            rule = face_rule(vor16, f, 4 * k + 16)
            tab = nb.eval(rule.points)
            M = tab.T @ (rule.weights[:, None] * tab)
            vals = np.asarray(grad(rule.points)) @ vor16.face_normal[f]
            expected = np.linalg.solve(M, tab.T @ (rule.weights * vals))
            got = vhat[lay.normal_slice(a)] * vor16.cell_signs[c][a]
            assert np.allclose(got, expected, atol=1e-11)


class TestEllipticProjectionOracle:
    def test_polynomials_reproduced(self, vor16):
        for k in (0, 2):
            u, grad, hess = poly_data(k + 2, seed=5)
            proj = elliptic_projection_oracle(u, hess, vor16, 1, k)
            pts = vor16.cell_polygon(1)
            assert np.allclose(proj(pts), u(pts), atol=1e-10)

    def test_affine_reproduced(self, vor16):
        u, grad, hess = poly_data(1, seed=6)
        proj = elliptic_projection_oracle(u, hess, vor16, 2, 1)
        pts = vor16.cell_polygon(2)
        assert np.allclose(proj(pts), u(pts), atol=1e-12)


def dense_stabilization_oracle_A(mesh, c, k, vhat, what, scaling="plain"):
    """Variant-A stabilization by explicit function evaluation (no matrices).

    Builds J^{k+1} of (v_dK - v_K) and the projection of (g_dK - d_n v_K)
    facewise from pointwise values, then integrates the products.
    """
    from hhobiharm.common import stab_factors

    lay = make_layout(mesh, c, "A", k)
    fac3, fac1 = stab_factors(scaling, k)
    h = mesh.cell_diameter[c]
    cb = CellBasis.for_cell(mesh, c, k + 2)
    total = 0.0
    for a, f in enumerate(mesh.cell_faces[c]):
        rule = face_rule(mesh, f, 2 * k + 9)
        pts = rule.points
        w = rule.weights
        n_out = mesh.outward_normal(c, f)

        def diff_vals(vec):
            cell = cb.eval(pts) @ vec[lay.cell_slice]
            fb = FaceBasis.for_face(mesh, f, k + 1)
            face = fb.eval(pts) @ vec[lay.trace_slice(a)]
            return face - cell

        def jfun(vec):
            fb = FaceBasis.for_face(mesh, f, k + 1)
            vids = mesh.face_vertices[f]
            ends = mesh.vertices[vids]
            cellv = cb.eval(ends) @ vec[lay.cell_slice]
            facev = fb.eval(ends) @ vec[lay.trace_slice(a)]
            dvals = diff_vals(vec)
            rows = [fb.eval_param(np.array([-0.5, 0.5]))]
            rhs = [facev - cellv]
            if k >= 1:
                theta = fb.eval(pts)[:, :k]
                rows.append(theta.T @ (w[:, None] * fb.eval(pts)))
                rhs.append(theta.T @ (w * dvals))
            coeffs = np.linalg.solve(np.vstack(rows), np.concatenate(rhs))
            return fb.eval(pts) @ coeffs

        def pfun(vec):
            gb = FaceBasis.for_face(mesh, f, k)
            gamma = gb.eval(pts) @ vec[lay.normal_slice(a)]
            gx = cb.eval(pts, 1, 0) @ vec[lay.cell_slice]
            gy = cb.eval(pts, 0, 1) @ vec[lay.cell_slice]
            vals = gamma - (n_out[0] * gx + n_out[1] * gy)
            tab = gb.eval(pts)
            M = tab.T @ (w[:, None] * tab)
            coeffs = np.linalg.solve(M, tab.T @ (w * vals))
            return tab @ coeffs

        j1, j2 = jfun(vhat), jfun(what)
        p1, p2 = pfun(vhat), pfun(what)
        total += fac3 * h ** -3 * (w @ (j1 * j2))
        total += fac1 * h ** -1 * (w @ (p1 * p2))
    return total


class TestStabilization:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_vanishes_on_reduced_polynomials(self, variant, k, vor16):
        u, grad, _ = poly_data(k + 2, seed=k)
        for c in (0, 7):
            ops = build_local_matrices(vor16, c, variant, k, check_kernel=False)
            vhat = reduce_cell(vor16, c, u, grad, variant, k)
            norm2 = vhat @ vhat
            assert vhat @ ops.S @ vhat <= 1e-12 * max(norm2, 1.0)

    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_single_face_constant_gamma(self, variant, vor16):
        k, c = 1, 5
        for scaling, fac in (("plain", 1.0), ("k2-all", (k + 1) ** 2)):
            ops = build_local_matrices(vor16, c, variant, k, scaling=scaling,
                                       check_kernel=False)
            lay = ops.layout
            f = vor16.cell_faces[c][0]
            cval = 0.7
            vhat = np.zeros(lay.n_total)
            vhat[lay.normal_slice(0).start] = cval
            expected = (fac * cval ** 2 * vor16.face_length[f]
                        / vor16.cell_diameter[c])
            assert vhat @ ops.S @ vhat == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_dense_function_oracle_variant_A(self, k, vor16):
        rng = np.random.default_rng(31 + k)
        c = 9
        S = build_stabilization(vor16, c, "A", k, scaling="plain")
        lay = make_layout(vor16, c, "A", k)
        for _ in range(4):
            vhat = rng.standard_normal(lay.n_total)
            what = rng.standard_normal(lay.n_total)
            oracle = dense_stabilization_oracle_A(vor16, c, k, vhat, what)
            got = vhat @ S @ what
            assert got == pytest.approx(oracle, rel=1e-11, abs=1e-11)

    def test_consistency_ratio_bounded(self):
        # S(Iv, Iv)^(1/2) / |hess(v - P v)|_K stays below a fixed constant
        # under refinement (plain scaling, the analysis normalization)
        u, grad, hess = (lambda p: np.sin(2 * p[:, 0]) * np.cosh(p[:, 1]),
                         lambda p: np.column_stack([
                             2 * np.cos(2 * p[:, 0]) * np.cosh(p[:, 1]),
                             np.sin(2 * p[:, 0]) * np.sinh(p[:, 1])]),
                         lambda p: np.column_stack([
                             -4 * np.sin(2 * p[:, 0]) * np.cosh(p[:, 1]),
                             2 * np.cos(2 * p[:, 0]) * np.sinh(p[:, 1]),
                             np.sin(2 * p[:, 0]) * np.cosh(p[:, 1])]))
        for k in (0, 1):
            ratios = []
            for n in (2, 4, 8):
                mesh = hb.build_rect_mesh(n, n)
                c = 0
                ops = build_local_matrices(mesh, c, "A", k, scaling="plain",
                                           check_kernel=False)
                vhat = reduce_cell(mesh, c, u, grad, "A", k)
                s_val = np.sqrt(max(vhat @ ops.S @ vhat, 0.0))
                rb = CellBasis.for_cell(mesh, c, k + 2)
                rule = cell_rule(mesh, c, 2 * k + 14)
                proj = project_cell(u, rb, rule)
                H = np.asarray(hess(rule.points))
                dxx = H[:, 0] - rb.eval(rule.points, 2, 0) @ proj.coeffs
                dxy = H[:, 1] - rb.eval(rule.points, 1, 1) @ proj.coeffs
                dyy = H[:, 2] - rb.eval(rule.points, 0, 2) @ proj.coeffs
                den = np.sqrt(rule.weights @ (dxx ** 2 + 2 * dxy ** 2 + dyy ** 2))
                ratios.append(s_val / den)
            assert max(ratios) < 100.0


class TestLocalForm:
    def test_unit_square_k0_dims_and_rank(self):
        m = hb.build_rect_mesh(1, 1)
        ops = build_local_matrices(m, 0, "A", 0)
        assert ops.A.shape == (18, 18)
        assert np.linalg.matrix_rank(ops.A, tol=1e-10 * np.linalg.norm(ops.A)) == 15
        ops = build_local_matrices(m, 0, "B", 0)
        assert ops.A.shape == (22, 22)
        assert np.linalg.matrix_rank(ops.A, tol=1e-10 * np.linalg.norm(ops.A)) == 19

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_psd_and_symmetric(self, variant, vor16):
        for k in (0, 2):
            for c in (1, 6):
                ops = build_local_matrices(vor16, c, variant, k,
                                           check_kernel=False)
                assert np.array_equal(ops.A, ops.A.T)
                ev = sla.eigvalsh(ops.A)
                assert ev.min() > -1e-12 * max(ev.max(), 1.0)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_kernel_dimension_three(self, variant, k, vor16, rect22):
        for mesh in (vor16, rect22):
            for c in range(mesh.n_cells):
                build_local_matrices(mesh, c, variant, k)  # raises on mismatch

    def test_kernel_detection_high_degree_guard(self, vor16):
        # the equilibrated rank test stays reliable up to k = 5, including
        # on the least shape-regular cells of the Voronoi mesh
        for k in (4, 5):
            for variant in VARIANTS:
                for c in (3, 8, 14):
                    build_local_matrices(vor16, c, variant, k)

    def test_kernel_check_catches_broken_stabilization(self, vor16):
        # dropping the stabilization inflates the kernel and must be detected
        work = _CellWork(vor16, 0, "A", 1)
        R = work.reconstruction()
        A = R.T @ work.G @ R
        from hhobiharm.localops import _kernel_dim
        assert _kernel_dim(0.5 * (A + A.T)) > 3


class TestSeminorm:
    def test_affine_modes_are_kernel(self, vor16):
        N = build_seminorm_gram(vor16, 3, "A", 1)
        scale = np.linalg.norm(N)
        for mode in rigid_modes(vor16, 3, make_layout(vor16, 3, "A", 1)):
            quad = mode @ N @ mode
            assert abs(quad) < 1e-13 * scale * (mode @ mode)

    def test_single_face_constant_gamma_value(self, vor16):
        k, c = 1, 5
        N = build_seminorm_gram(vor16, c, "A", k)
        lay = make_layout(vor16, c, "A", k)
        f = vor16.cell_faces[c][0]
        cval = 1.3
        vhat = np.zeros(lay.n_total)
        vhat[lay.normal_slice(0).start] = cval
        expected = np.sqrt(cval ** 2 * vor16.face_length[f]
                           / vor16.cell_diameter[c])
        assert local_seminorm(N, vhat) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_spectral_equivalence_stable_under_refinement(self, variant):
        # generalized eigenvalues of a_K against the seminorm Gram stay in a
        # band [alpha, 1/alpha] that does not collapse under refinement
        k = 1
        bounds = []
        for n in (2, 4, 8):
            mesh = hb.build_rect_mesh(n, n)
            c = 0
            ops = build_local_matrices(mesh, c, variant, k, scaling="plain",
                                       check_kernel=False)
            Z = rigid_modes(mesh, c, ops.layout)
            Q = sla.null_space(Z)
            Aq = Q.T @ ops.A @ Q
            Nq = Q.T @ build_seminorm_gram(mesh, c, variant, k) @ Q
            ev = sla.eigvalsh(Aq, Nq)
            bounds.append((ev.min(), ev.max()))
        mins = [b[0] for b in bounds]
        maxs = [b[1] for b in bounds]
        assert min(mins) > 0
        # stability across refinement: no more than 2x degradation
        assert max(mins) <= 2.0 * min(mins) + 1e-12
        assert max(maxs) <= 2.0 * min(maxs) + 1e-12


class TestStackedFaceTables:
    """The face tables of `_CellWork`, stacked over the faces, carry the bits
    of the same tables built one face at a time."""

    @staticmethod
    def per_face(mesh, c, k):
        rec = CellBasis.for_cell(mesh, c, k + 2)
        out = []
        for f, sgn in zip(mesh.cell_faces[c], mesh.cell_signs[c]):
            rule = face_rule(mesh, f, face_degree(k))
            w = rule.weights
            fb = FaceBasis.for_face(mesh, f, k + 2)
            Psi = fb.eval(rule.points)
            Mf = Psi.T @ (w[:, None] * Psi)
            Mf = 0.5 * (Mf + Mf.T)
            tab = rec.tables(rule.points,
                             FACE_ORDERS_3 if k >= 1 else FACE_ORDERS_2)
            Dn, _, Dnn, Dnt, DnLap = face_derivatives(
                tab, sgn * mesh.face_normal[f], mesh.face_tangent[f])
            T2 = sla.solve(Mf, Psi.T @ (w[:, None] * tab[(0, 0)]),
                           assume_a="pos")
            PN = sla.solve(Mf[:k + 1, :k + 1],
                           Psi[:, :k + 1].T @ (w[:, None] * Dn), assume_a="pos")
            out.append(dict(Mf=Mf, T2=T2, PN=PN, Dnn=Dnn, Dnt=Dnt,
                            DnLap=DnLap))
        return out

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stacked_equals_per_face(self, vor16, variant, k):
        cases = [(vor16, c) for c in range(0, vor16.n_cells, 3)]
        cases.append((CellShape(vor16, 5), 0))
        for mesh, c in cases:
            work = _CellWork(mesh, c, variant, k)
            for a, ref in enumerate(self.per_face(mesh, c, k)):
                for name, table in ref.items():
                    assert np.array_equal(getattr(work, name)[a], table), name


class TestBatchedBuild:
    """A stack of class shapes built at once carries, cell by cell, the bits
    of the same shapes built one at a time."""

    OPS = ("R", "G", "S", "A", "lifting", "load_boundary")

    @staticmethod
    def batches(mesh, nitsche):
        bare = None
        if nitsche:
            bare = [tuple(mesh.is_boundary_face[mesh.cell_faces[c]])
                    for c in range(mesh.n_cells)]
        return shape_batches(mesh, [[c] for c in range(mesh.n_cells)], bare)

    def check(self, mesh, variant, k, nitsche):
        bdata = BoundaryData.from_case(hb.get_case("2")) if nitsche else None
        for cells in self.batches(mesh, nitsche):
            shape = CellShape(mesh, cells)
            ops = build_local_matrices(shape, np.arange(len(cells)), variant,
                                       k, nitsche=nitsche, bdata=bdata)
            for i, c in enumerate(cells):
                one = build_local_matrices(CellShape(mesh, c), 0, variant, k,
                                           nitsche=nitsche, bdata=bdata)
                for name in self.OPS:
                    got, ref = getattr(ops, name), getattr(one, name)
                    assert (got is None) == (ref is None), name
                    assert ref is None or np.array_equal(got[i], ref), name

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("variant,nitsche", [
        ("A", False), ("B", False), ("C", False), ("A", True), ("B", True)])
    def test_stack_equals_one_at_a_time(self, vor64, variant, k, nitsche):
        assert max(len(b) for b in self.batches(vor64, nitsche)) > 1
        self.check(vor64, variant, k, nitsche)

    @pytest.mark.parametrize("variant", ["A", "C"])
    def test_mesh_cells_stack_like_one_at_a_time(self, vor64, variant):
        # `cell_rows` gathers the rows of mesh cells of one vertex count, so
        # the builders stack them as they stack class shapes.
        cells = np.flatnonzero(np.diff(vor64.cell_ptr) == 6)[:4]
        ops = build_local_matrices(vor64, cells, variant, 2)
        for i, c in enumerate(cells):
            one = build_local_matrices(vor64, c, variant, 2)
            for name in ("R", "G", "S", "A"):
                assert np.array_equal(getattr(ops, name)[i],
                                      getattr(one, name)), name

    @pytest.mark.parametrize("variant,nitsche", [
        ("A", False), ("C", False), ("B", True)])
    def test_ear_clipped_cells_stack_apart_from_fans(self, variant, nitsche):
        ntri = [len(hb.subtriangulate(DENTED, c)) for c in range(4)]
        assert ntri == [3, 5, 3, 5]
        if not nitsche:
            assert [b.tolist() for b in self.batches(DENTED, False)] == [
                [0, 2], [1, 3]]
        self.check(DENTED, variant, 2, nitsche)

    @pytest.mark.parametrize("variant,bc", [("A", "strong"), ("C", "strong"),
                                            ("B", "nitsche")])
    def test_batch_size_changes_no_bits(self, vor64, variant, bc,
                                        monkeypatch):
        import hhobiharm.mesh as mesh_mod

        case = hb.get_case("2")
        runs = []
        for size in (mesh_mod._BATCH, 1):
            monkeypatch.setattr(mesh_mod, "_BATCH", size)
            sys_ = assemble(vor64, variant, 2, bc, f=case.f,
                            bdata=BoundaryData.from_case(case))
            fld = reconstruct_field(sys_, hb.solve(sys_))
            runs.append((sys_, error_norms(vor64, fld, case, 2)))
        (big, rep_big), (one, rep_one) = runs
        assert len(big.classes) < len(one.classes) == vor64.n_cells
        assert np.array_equal(big.matrix.indptr, one.matrix.indptr)
        assert np.array_equal(big.matrix.indices, one.matrix.indices)
        assert np.array_equal(big.matrix.data, one.matrix.data)
        assert np.array_equal(big.rhs, one.rhs)
        assert rep_big == rep_one


class TestNitscheOps:
    def test_interior_cell_equals_standard(self, vor16):
        interior = [c for c in range(vor16.n_cells)
                    if not any(vor16.is_boundary_face[f]
                               for f in vor16.cell_faces[c])]
        c = interior[0]
        std = build_local_matrices(vor16, c, "A", 1, check_kernel=False)
        nit = build_local_matrices(vor16, c, "A", 1, nitsche=True,
                                   check_kernel=False)
        assert np.allclose(std.A, nit.A, rtol=1e-14, atol=1e-14)
        assert np.allclose(nit.lifting, 0.0)

    def test_homogeneous_lifting_is_zero(self, vor16):
        boundary = [c for c in range(vor16.n_cells)
                    if any(vor16.is_boundary_face[f]
                           for f in vor16.cell_faces[c])]
        c = boundary[0]
        ops = build_local_matrices(vor16, c, "A", 1, nitsche=True, bdata=None)
        assert np.allclose(ops.lifting, 0.0)
        assert np.allclose(ops.load_boundary, 0.0)

    def test_one_cell_affine_exact(self):
        m = hb.build_rect_mesh(1, 1)
        case = hb.random_polynomial_case(1, seed=4)
        rep, _, fld = hb.solve_and_measure(m, "A", 0, "nitsche", case)
        pts = np.array([[0.2, 0.3], [0.8, 0.9]])
        assert np.allclose(fld[0](pts), case.u(pts), atol=1e-10)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_load_two_path_equality(self, k, vor16):
        case = hb.get_case("2")
        bdata = hb.BoundaryData.from_case(case)
        boundary = [c for c in range(vor16.n_cells)
                    if any(vor16.is_boundary_face[f]
                           for f in vor16.cell_faces[c])]
        for c in boundary[:4]:
            work = _CellWork(vor16, c, "A", k, nitsche=True)
            R = work.reconstruction()
            _, load1 = work.nitsche_data(bdata, "k2-all", R)
            load2 = work.nitsche_load_two_path(bdata, "k2-all", R)
            scale = max(np.linalg.norm(load1), 1.0)
            assert np.linalg.norm(load1 - load2) <= 1e-10 * scale

    def test_boundary_data_sampled_once_per_build(self, vor16, monkeypatch):
        calls = []
        dirichlet = hb.BoundaryData.dirichlet

        def counted(self, pts):
            calls.append(len(pts))
            return dirichlet(self, pts)

        monkeypatch.setattr(hb.BoundaryData, "dirichlet", counted)
        bdata = hb.BoundaryData.from_case(hb.get_case("2"))
        nq = face_rule(vor16, 0, face_degree(1) + BC_EXTRA_DEGREE).n_points
        boundary = [c for c in range(vor16.n_cells)
                    if any(vor16.is_boundary_face[f]
                           for f in vor16.cell_faces[c])]
        for c in boundary:
            n_boundary = sum(bool(vor16.is_boundary_face[f])
                             for f in vor16.cell_faces[c])
            calls.clear()
            build_local_matrices(vor16, c, "A", 1, nitsche=True, bdata=bdata)
            assert calls == [n_boundary * nq]

    def test_boundary_cell_kernel_zero(self, vor16):
        boundary = [c for c in range(vor16.n_cells)
                    if any(vor16.is_boundary_face[f]
                           for f in vor16.cell_faces[c])]
        for c in boundary[:3]:
            build_local_matrices(vor16, c, "A", 1, nitsche=True)  # kernel 0


class TestCellBlockInvertibility:
    def test_singular_cell_block_reported_with_cell_id(self, rect22):
        # a healthy mesh never triggers it; simulate by calling the guard path
        ops = build_local_matrices(rect22, 2, "A", 0, check_kernel=False)
        nc = ops.layout.cell_dim
        A_TT = ops.A[:nc, :nc]
        assert np.all(sla.eigvalsh(A_TT) > 0)


class TestOracleSweepSmallScale:
    def test_reduce_then_reconstruct_many_random_functions(self, vor16):
        rng = np.random.default_rng(0)
        worst = 0.0
        for k in (0, 1):
            for trial in range(6):
                u, grad, hess = random_smooth_family(100 * k + trial)
                c = int(rng.integers(0, vor16.n_cells))
                ops = build_local_matrices(vor16, c, "A", k, check_kernel=False)
                vhat = reduce_cell(vor16, c, u, grad, "A", k)
                diff = (ops.R @ vhat
                        - elliptic_projection_oracle(u, hess, vor16, c, k).coeffs)
                err = np.sqrt(max(diff @ ops.G @ diff, 0.0))
                worst = max(worst, err)
        assert worst < 1e-10
