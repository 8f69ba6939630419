import numpy as np
import pytest

import hhobiharm as hb
from hhobiharm.polyspace import (CellBasis, FaceBasis, PolyCoeffs,
                                 canonical_interp_face, canonical_interp_matrix,
                                 cell_mass_matrix, face_derivatives,
                                 project_cell, project_face,
                                 reference_interp_matrix, space_dim,
                                 tangential_derivative)
from hhobiharm.quadrature import cell_rule, face_rule, segment_rule

from conftest import (PENTAGON, random_smooth_family,
                      scaled_monomial_product_integral)


def unit_segment_basis(degree):
    """Face basis on the segment from (0,0) to (1,0)."""
    return FaceBasis(np.array([0.5, 0.0]), np.array([1.0, 0.0]), 1.0, degree)


def mapped_rule(basis, n):
    ref = segment_rule(n)
    pts = (basis.midpoint[None, :]
           + (ref.points - 0.5)[:, None] * basis.length * basis.tangent[None, :])
    return hb.QuadratureRule(pts, ref.weights * basis.length, ref.exact_degree)


class TestCellBasis:
    def test_dimension(self):
        for m in range(6):
            assert space_dim(m) == (m + 1) * (m + 2) // 2
            b = CellBasis(np.zeros(2), 1.0, m)
            assert b.dim == space_dim(m)

    def test_derivative_consistency_fd(self):
        rng = np.random.default_rng(1)
        b = CellBasis(np.array([0.4, 0.6]), 0.8, 4)
        pts = rng.uniform(0.2, 0.8, size=(20, 2))
        h = 1e-6
        ex = np.array([h, 0.0])
        ey = np.array([0.0, h])
        # gradient vs values
        gx = (b.eval(pts + ex) - b.eval(pts - ex)) / (2 * h)
        gy = (b.eval(pts + ey) - b.eval(pts - ey)) / (2 * h)
        scale = np.max(np.abs(gx)) + 1.0
        assert np.max(np.abs(gx - b.eval(pts, 1, 0))) < 1e-6 * scale
        assert np.max(np.abs(gy - b.eval(pts, 0, 1))) < 1e-6 * scale
        # Hessian vs gradient
        hxx = (b.eval(pts + ex, 1, 0) - b.eval(pts - ex, 1, 0)) / (2 * h)
        hxy = (b.eval(pts + ey, 1, 0) - b.eval(pts - ey, 1, 0)) / (2 * h)
        scale = np.max(np.abs(hxx)) + 1.0
        assert np.max(np.abs(hxx - b.eval(pts, 2, 0))) < 1e-6 * scale
        assert np.max(np.abs(hxy - b.eval(pts, 1, 1))) < 1e-6 * scale

    def test_mass_matrix_degree0(self):
        m = hb.build_rect_mesh(1, 1)
        b = CellBasis.for_cell(m, 0, 0)
        M = cell_mass_matrix(b, cell_rule(m, 0, 2))
        assert M.shape == (1, 1)
        assert M[0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_centroid_centering_kills_odd_moment(self, pentagon_mesh):
        b = CellBasis.for_cell(pentagon_mesh, 0, 1)
        M = cell_mass_matrix(b, cell_rule(pentagon_mesh, 0, 4))
        assert abs(M[0, 1]) < 1e-14 * M[0, 0]
        assert abs(M[0, 2]) < 1e-14 * M[0, 0]

    def test_mass_matrix_matches_exact_oracle(self, pentagon_mesh):
        b = CellBasis.for_cell(pentagon_mesh, 0, 2)
        M = cell_mass_matrix(b, cell_rule(pentagon_mesh, 0, 6))
        cen = pentagon_mesh.cell_centroid[0]
        h = pentagon_mesh.cell_diameter[0]
        for i in range(b.dim):
            for j in range(b.dim):
                exact = scaled_monomial_product_integral(
                    PENTAGON, cen, h, b.exponents[i], b.exponents[j])
                assert M[i, j] == pytest.approx(exact, rel=1e-12, abs=1e-15)

    def test_conditioning_guard_degree7(self, vor64):
        # Mass matrices of the scaled monomial basis stay usable up to degree
        # 7: after normalizing each function by its L^2 norm (the scale-free
        # measure of basis quality) the condition number stays below 1e8.
        meshes = [vor64, hb.build_rect_mesh(4, 4), hb.build_tri_mesh(2)]
        for mesh in meshes:
            for c in range(0, mesh.n_cells, 5):
                b = CellBasis.for_cell(mesh, c, 7)
                M = cell_mass_matrix(b, cell_rule(mesh, c, 14))
                d = 1.0 / np.sqrt(np.diag(M))
                assert np.linalg.cond(M * np.outer(d, d)) < 1e8


class TestProjectCell:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_idempotence_on_polynomials(self, m, pentagon_mesh):
        rng = np.random.default_rng(m)
        b = CellBasis.for_cell(pentagon_mesh, 0, m)
        rule = cell_rule(pentagon_mesh, 0, 2 * m + 2)
        for _ in range(25):
            coeffs = rng.standard_normal(b.dim)
            poly = PolyCoeffs(b, coeffs)
            back = project_cell(poly, b, rule)
            assert np.allclose(back.coeffs, coeffs, rtol=1e-12, atol=1e-12)

    def test_mean_of_x(self):
        m = hb.build_rect_mesh(1, 1)
        b = CellBasis.for_cell(m, 0, 0)
        rule = cell_rule(m, 0, 3)
        proj = project_cell(lambda p: p[:, 0], b, rule)
        assert proj.coeffs[0] == pytest.approx(0.5, abs=1e-14)

    def test_residual_orthogonality(self, pentagon_mesh):
        b = CellBasis.for_cell(pentagon_mesh, 0, 3)
        rule = cell_rule(pentagon_mesh, 0, 12)

        def v(p):
            return np.sin(2 * p[:, 0]) * np.exp(p[:, 1])

        proj = project_cell(v, b, rule)
        resid = v(rule.points) - proj(rule.points)
        moments = b.eval(rule.points).T @ (rule.weights * resid)
        assert np.max(np.abs(moments)) < 1e-11

    def test_sinsin_matches_dense_tensor_oracle(self):
        # independent oracle: normal equations under a 30x30 tensor rule
        m = hb.build_rect_mesh(1, 1)
        b = CellBasis.for_cell(m, 0, 2)

        def v(p):
            return np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])

        x, w = np.polynomial.legendre.leggauss(30)
        x = 0.5 * (x + 1)
        w = 0.5 * w
        X, Y = np.meshgrid(x, x, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        ww = np.outer(w, w).ravel()
        table = b.eval(pts)
        M = table.T @ (ww[:, None] * table)
        rhs = table.T @ (ww * v(pts))
        expected = np.linalg.solve(M, rhs)
        got = project_cell(v, b, cell_rule(m, 0, 14)).coeffs
        assert np.allclose(got, expected, atol=1e-10)


class TestProjectFace:
    def test_identity_on_polynomials(self, vor16):
        rng = np.random.default_rng(5)
        f = 3
        b = FaceBasis.for_face(vor16, f, 3)
        rule = face_rule(vor16, f, 8)
        coeffs = rng.standard_normal(b.dim)
        back = project_face(PolyCoeffs(b, coeffs), b, rule)
        assert np.allclose(back.coeffs, coeffs, rtol=1e-12, atol=1e-13)

    def test_mean_of_s_squared(self):
        # projection of s^2 onto constants over a segment of length L,
        # s measured from the midpoint: mean = L^2 / 12
        L = 0.7
        b = FaceBasis(np.array([0.2, 0.3]), np.array([1.0, 0.0]), L, 0)
        rule = mapped_rule(b, 4)

        def v(p):
            return (p[:, 0] - 0.2) ** 2

        proj = project_face(v, b, rule)
        assert proj.coeffs[0] == pytest.approx(L ** 2 / 12.0, rel=1e-13)

    def test_exp_matches_dense_oracle(self):
        b = unit_segment_basis(1)
        rule = mapped_rule(b, 20)

        def v(p):
            return np.exp(p[:, 0])

        table = b.eval(rule.points)
        M = table.T @ (rule.weights[:, None] * table)
        rhs = table.T @ (rule.weights * v(rule.points))
        expected = np.linalg.solve(M, rhs)
        got = project_face(v, b, mapped_rule(b, 6)).coeffs
        assert np.allclose(got, expected, atol=1e-12)


class TestCanonicalInterpolation:
    def test_k0_is_lagrange(self):
        # on the face [0,1] x {0}: J of x^2 is the line through (0,0), (1,1)
        b = unit_segment_basis(1)
        rule = mapped_rule(b, 6)
        J = canonical_interp_face(lambda p: p[:, 0] ** 2, 0, b, rule)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.25, 0.0]])
        assert np.allclose(J(pts), [0.0, 1.0, 0.25], atol=1e-14)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    def test_reproduces_Pk1(self, k, vor16):
        rng = np.random.default_rng(k)
        f = 4
        b = FaceBasis.for_face(vor16, f, k + 1)
        rule = face_rule(vor16, f, 2 * k + 6)
        coeffs = rng.standard_normal(b.dim)
        J = canonical_interp_face(PolyCoeffs(b, coeffs), k, b, rule)
        assert np.allclose(J.coeffs, coeffs, rtol=1e-11, atol=1e-12)

    def test_k1_cubic_on_reference(self):
        # direct 3x3 dof-system oracle for J of s^3 on the segment (-1, 1)
        b = FaceBasis(np.zeros(2), np.array([1.0, 0.0]), 2.0, 2)
        rule = mapped_rule(b, 8)

        def v(p):
            return p[:, 0] ** 3

        got = canonical_interp_face(v, 1, b, rule)
        # dofs: value at -1, value at +1, zeroth moment over the face
        s = b.param(rule.points)
        table = b.eval_param(s)
        D = np.vstack([b.eval_param(np.array([-0.5, 0.5])),
                       rule.weights @ table])
        d = np.array([-1.0, 1.0, rule.weights @ v(rule.points)])
        expected = np.linalg.solve(D, d)
        assert np.allclose(got.coeffs, expected, atol=1e-12)
        assert got(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0, abs=1e-13)
        assert got(np.array([[-1.0, 0.0]]))[0] == pytest.approx(-1.0, abs=1e-13)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    def test_key_identities(self, k, vor16):
        """endpoint match, moment match, and the derivative commutation."""
        for seed, f in [(0, 2), (1, 9)]:
            u, grad, _ = random_smooth_family(10 * k + seed)
            b = FaceBasis.for_face(vor16, f, k + 1)
            rule = face_rule(vor16, f, 2 * k + 5 + 8)
            J = canonical_interp_face(u, k, b, rule)
            # endpoints exactly
            vids = vor16.face_vertices[f]
            ends = vor16.vertices[vids]
            assert np.allclose(J(ends), u(ends), atol=1e-11)
            resid = u(rule.points) - J(rule.points)
            # moments against P^{k-1}
            if k >= 1:
                theta = b.eval(rule.points)[:, :k]
                mom = theta.T @ (rule.weights * resid)
                assert np.max(np.abs(mom)) < 1e-11
            # tangential derivative commutes with the L^2 projection onto P^k
            t = vor16.face_tangent[f]
            dt_u = np.asarray(grad(rule.points)) @ t
            dJ = b.eval(rule.points, 1) @ J.coeffs
            pk = FaceBasis.for_face(vor16, f, k)
            tab = pk.eval(rule.points)
            M = tab.T @ (rule.weights[:, None] * tab)
            lhs = np.linalg.solve(M, tab.T @ (rule.weights * dt_u))
            rhs = np.linalg.solve(M, tab.T @ (rule.weights * dJ))
            assert np.allclose(lhs, rhs, atol=1e-11)
            # projection onto P^{k-1} unchanged
            if k >= 1:
                pk1 = FaceBasis.for_face(vor16, f, k - 1)
                tab1 = pk1.eval(rule.points)
                mom1 = tab1.T @ (rule.weights * resid)
                assert np.max(np.abs(mom1)) < 1e-11

    def test_weight_basis_independence(self, vor16):
        f = 6
        for k in (1, 2, 4):
            b = FaceBasis.for_face(vor16, f, k + 1)
            rule = face_rule(vor16, f, 2 * k + 8)
            u, _, _ = random_smooth_family(k)
            Jm = canonical_interp_face(u, k, b, rule, weight_basis="monomial")
            Jl = canonical_interp_face(u, k, b, rule, weight_basis="legendre")
            assert np.allclose(Jm.coeffs, Jl.coeffs, rtol=1e-11, atol=1e-12)
            src = FaceBasis.for_face(vor16, f, k + 2)
            Mm = canonical_interp_matrix(src, k, rule, weight_basis="monomial")
            Ml = canonical_interp_matrix(src, k, rule, weight_basis="legendre")
            assert np.allclose(Mm, Ml, rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_reference_matrix_serves_every_face(self, k, vor16):
        J = reference_interp_matrix(k, k + 2)
        assert not J.flags.writeable
        for f in range(vor16.n_faces):
            src = FaceBasis.for_face(vor16, f, k + 2)
            got = canonical_interp_matrix(src, k, face_rule(vor16, f, 2 * k + 5))
            assert np.allclose(J, got, rtol=0.0, atol=1e-12 * np.abs(got).max())

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_bisection_decay_rate(self, k):
        """Composite interpolation error drops by ~2^(k+2) per bisection."""
        def u(p):
            return np.sin(np.pi * p[:, 0])

        errs = []
        for level in range(4):
            n = 2 ** level
            total = 0.0
            for i in range(n):
                a, c = i / n, (i + 1) / n
                mid = np.array([(a + c) / 2, 0.0])
                b = FaceBasis(mid, np.array([1.0, 0.0]), c - a, k + 1)
                rule = mapped_rule(b, k + 10)
                J = canonical_interp_face(u, k, b, rule)
                resid = u(rule.points) - J(rule.points)
                total += rule.weights @ resid ** 2
            errs.append(np.sqrt(total))
        ratio = errs[2] / errs[3]
        assert ratio == pytest.approx(2 ** (k + 2), rel=0.2)


class TestTraces:
    def test_face_derivatives_tables_match_samples(self, vor16):
        # one helper serves basis tables and sampled exact derivatives alike
        case = hb.random_polynomial_case(4, seed=3)
        c = 5
        b = CellBasis.for_cell(vor16, c, 4)
        coeffs = project_cell(case.u, b, cell_rule(vor16, c, 10)).coeffs
        orders = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                  (3, 0), (2, 1), (1, 2), (0, 3)]
        for f in vor16.cell_faces[c]:
            n, t = vor16.outward_normal(c, f), vor16.face_tangent[f]
            pts = face_rule(vor16, f, 6).points
            exact = np.hstack([case.grad(pts), case.hess(pts), case.third(pts)])
            samples = {key: exact[:, j] for j, key in enumerate(orders)}
            tab = b.tables(pts, orders)
            for D, d in zip(face_derivatives(tab, n, t),
                            face_derivatives(samples, n, t)):
                assert np.allclose(D @ coeffs, d, atol=1e-10)
            no_third = {key: tab[key] for key in orders[:5]}
            assert face_derivatives(no_third, n, t)[4] is None

    def test_x2_on_right_face_of_unit_square(self):
        m = hb.build_rect_mesh(1, 1)
        b = CellBasis.for_cell(m, 0, 2)
        # v = x^2 in basis coefficients: x = cx + h*X  =>  x^2 expansion
        cx, cy = m.cell_centroid[0]
        h = m.cell_diameter[0]
        coeffs = np.zeros(b.dim)
        coeffs[0] = cx ** 2
        coeffs[1] = 2 * cx * h
        coeffs[3] = h ** 2
        poly = PolyCoeffs(b, coeffs)
        right = [f for f in range(m.n_faces)
                 if np.allclose(m.face_midpoint[f], [1.0, 0.5])][0]
        rule = face_rule(m, right, 5)
        assert np.allclose(poly(rule.points), rule.points[:, 0] ** 2, atol=1e-13)
        dn = hb.normal_derivative_on_face(poly, m, right, rule)
        assert np.allclose(dn, 2.0 * rule.points[:, 0], atol=1e-13)
        d_nn, d_nt, d_nlap = hb.hessian_traces_on_face(poly, m, right, rule)
        assert np.allclose(d_nn, 2.0, atol=1e-13)
        assert np.allclose(d_nt, 0.0, atol=1e-13)
        assert np.allclose(d_nlap, 0.0, atol=1e-13)

    def test_affine_polynomials_have_zero_second_traces(self, vor16):
        b = CellBasis.for_cell(vor16, 2, 3)
        coeffs = np.zeros(b.dim)
        coeffs[:3] = [0.3, -1.2, 0.7]
        poly = PolyCoeffs(b, coeffs)
        f = vor16.cell_faces[2][0]
        rule = face_rule(vor16, f, 6)
        d_nn, d_nt, d_nlap = hb.hessian_traces_on_face(poly, vor16, f, rule)
        assert np.max(np.abs(d_nn)) < 1e-14
        assert np.max(np.abs(d_nt)) < 1e-14
        assert np.max(np.abs(d_nlap)) < 1e-14

    def test_x3y_dnlap_on_bottom_face(self):
        # v = x^3 y on the face y=0 with outward normal (0,-1):
        # d_n(Lap v) = -d_y(6xy) = -6x
        m = hb.build_rect_mesh(1, 1)
        b = CellBasis.for_cell(m, 0, 4)
        cx, cy = m.cell_centroid[0]
        h = m.cell_diameter[0]

        def v(p):
            return p[:, 0] ** 3 * p[:, 1]

        proj = project_cell(v, b, cell_rule(m, 0, 10))
        bottom = [f for f in range(m.n_faces)
                  if np.allclose(m.face_midpoint[f], [0.5, 0.0])][0]
        rule = face_rule(m, bottom, 7)
        _, _, d_nlap = hb.hessian_traces_on_face(proj, m, bottom, rule)
        assert np.allclose(d_nlap, -6.0 * rule.points[:, 0], atol=1e-11)

    def test_face_not_on_cell(self, rect22):
        b = CellBasis.for_cell(rect22, 0, 2)
        poly = PolyCoeffs(b, np.zeros(b.dim))
        other = [f for f in range(rect22.n_faces)
                 if 3 not in rect22.face_cells[f] and 0 not in rect22.face_cells[f]]
        with pytest.raises(hb.MeshError):
            hb.trace_on_face(poly, rect22, other[0],
                             face_rule(rect22, other[0], 3))


class TestTangentialDerivative:
    def test_basics(self):
        L = 0.8
        b = FaceBasis(np.zeros(2), np.array([0.6, 0.8]), L, 2)
        const = tangential_derivative(PolyCoeffs(b, np.array([3.0, 0, 0])))
        assert np.allclose(const.coeffs, 0.0)
        lin = tangential_derivative(PolyCoeffs(b, np.array([0, 1.0, 0])))
        assert lin.basis.degree == 1
        assert np.allclose(lin.coeffs, [1.0 / L, 0.0])
        quad = tangential_derivative(PolyCoeffs(b, np.array([0, 0, 1.0])))
        # d/ds s_hat^2 = 2 s_hat / L, in the degree-1 basis
        assert np.allclose(quad.coeffs, [0.0, 2.0 / L])
