import csv

import numpy as np
import pytest

import hhobiharm as hb
from hhobiharm.assembly import assemble, recover_cells
from hhobiharm.solving import (CSV_HEADER, ErrorReport, RateTable, SolveConfig,
                               error_norms, projection_gap_sharp_norm,
                               reconstruct_field, solve)


def hand_built_system(matrix, rhs):
    """A CondensedSystem carrying only a given matrix and right-hand side."""
    import scipy.sparse as sp
    from hhobiharm.assembly import CondensedSystem, DofMap

    n = len(rhs)
    dm = DofMap("A", 0, "strong", 2, 1, np.arange(n), n)
    return CondensedSystem(matrix=sp.csr_matrix(np.array(matrix)),
                           rhs=np.array(rhs), dofmap=dm, mesh=None,
                           variant="A", k=0, bc_mode="strong",
                           scaling="plain", cells=[], prescribed={})


class TestSolve:
    def test_zero_rhs(self, rect22):
        sys_ = assemble(rect22, "A", 0, "strong", f=None)
        assert np.allclose(solve(sys_), 0.0)

    def test_direct_vs_dense(self, rect22):
        case = hb.get_case("1")
        sys_ = assemble(rect22, "A", 0, "strong", f=case.f)
        assert sys_.n_dofs == 12
        xd = solve(sys_)
        xref = np.linalg.solve(sys_.matrix.toarray(), sys_.rhs)
        assert np.allclose(xd, xref, rtol=1e-9, atol=1e-12 * np.abs(xd).max())

    def test_one_by_one_system(self):
        assert solve(hand_built_system([[4.0]], [2.0]))[0] == pytest.approx(0.5)

    def test_indefinite_system_rejected(self):
        # Symmetric with eigenvalues of both signs: the factorization keeps
        # its diagonal pivots, and one of them comes out negative.
        A = [[1.0, 2.0, 3.0], [2.0, -1.0, 0.0], [3.0, 0.0, 1.0]]
        with pytest.raises(hb.SolverError, match="pivot"):
            solve(hand_built_system(A, [1.0, 1.0, 1.0]))

    def test_zero_diagonal_rejected(self):
        # A zero diagonal forces an off-diagonal pivot, so the row and column
        # permutations differ.
        with pytest.raises(hb.SolverError, match="permutations differ"):
            solve(hand_built_system([[0.0, 1.0], [1.0, 0.0]], [1.0, 2.0]))

    def test_direct_residual_contract(self, vor16):
        case = hb.get_case("1")
        sys_ = assemble(vor16, "A", 2, "strong", f=case.f)
        x = solve(sys_)
        res = np.linalg.norm(sys_.matrix @ x - sys_.rhs)
        assert res <= 1e-10 * np.linalg.norm(sys_.rhs)

    def test_residual_at_roundoff_floor_accepted(self):
        # Aspect ratio 128 at k=2: refinement stalls at a relative residual
        # of about 1e-8, above the 1e-10 contract, so it is the roundoff
        # floor 2 eps || |A| |x| || (about 8e-8 here) that lets it pass.
        case = hb.get_case("1")
        sys_ = assemble(hb.build_rect_mesh(256, 2), "A", 2, "strong",
                        f=case.f)
        x = solve(sys_)
        A = sys_.matrix
        res = np.linalg.norm(A @ x - sys_.rhs)
        floor = 2.0 * np.finfo(float).eps * np.linalg.norm(abs(A) @ np.abs(x))
        assert res <= floor

    def test_non_finite_residual_rejected(self):
        with pytest.raises(hb.SolverError, match="direct solve residual nan"):
            solve(hand_built_system([[4.0]], [float("nan")]))

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_nonpositive_direct_residual_rejected(self, value):
        with pytest.raises(ValueError, match="direct_residual"):
            SolveConfig(direct_residual=value)


class TestReconstructField:
    def test_affine_interpolant_reproduced_everywhere(self, vor16):
        case = hb.random_polynomial_case(1, seed=11)
        rep, sol, fld = hb.solve_and_measure(vor16, "A", 1, "strong", case)
        for c in (0, 5, 10):
            pts = vor16.cell_polygon(c)
            assert np.allclose(fld[c](pts), case.u(pts), atol=1e-10)

    def test_matrix_action_definition(self, rect22):
        case = hb.get_case("1")
        sys_ = assemble(rect22, "A", 1, "strong", f=case.f)
        x = solve(sys_)
        sol = recover_cells(sys_, x)
        fld = reconstruct_field(sys_, sol)
        for c in range(rect22.n_cells):
            rec = sys_.cells[c]
            local = sol.local_vector(c)
            assert np.allclose(fld[c].coeffs, rec.R @ local, atol=1e-14)


class TestErrorNorms:
    def test_exact_field_zero_error(self, rect22):
        case = hb.random_polynomial_case(3, seed=3)
        rep, sol, fld = hb.solve_and_measure(rect22, "A", 1, "strong", case)
        report = error_norms(rect22, fld, case, 1)
        assert report.err_h2_rel < 1e-11
        assert report.err_l2_rel < 1e-11

    @pytest.mark.parametrize("k", [0, 2])
    def test_shared_rule_matches_per_cell_quadrature(self, k):
        from hhobiharm.quadrature import cell_rule
        mesh = hb.build_rect_mesh(4, 3)
        assert np.all(hb.translation_classes(mesh) == 0)
        case = hb.get_case("2")
        _, _, fld = hb.solve_and_measure(mesh, "A", k, "strong", case)
        got = error_norms(mesh, fld, case, k)
        e = np.zeros((4, mesh.n_cells))
        for c in range(mesh.n_cells):
            rule = cell_rule(mesh, c, 2 * (k + 2) + 4)
            p, w, b = rule.points, rule.weights, fld[c].basis
            H = np.asarray(case.hess(p))
            dv = b.eval(p) @ fld[c].coeffs - case.u(p)
            dH = [b.eval(p, *d) @ fld[c].coeffs - H[:, j]
                  for j, d in enumerate([(2, 0), (1, 1), (0, 2)])]
            e[:, c] = [w @ (dH[0] ** 2 + 2 * dH[1] ** 2 + dH[2] ** 2),
                       w @ (H[:, 0] ** 2 + 2 * H[:, 1] ** 2 + H[:, 2] ** 2),
                       w @ dv ** 2, w @ case.u(p) ** 2]
        s = np.sqrt(e.sum(axis=1))
        assert got.err_h2_rel == pytest.approx(s[0] / s[1], rel=1e-13)
        assert got.err_l2_rel == pytest.approx(s[2] / s[3], rel=1e-13)

    def test_norm_quadrature_sinsq(self):
        # || sin^2(pi x) sin^2(pi y) ||_{L2}^2 = 9/64
        mesh = hb.build_rect_mesh(8, 8)
        case = hb.get_case("1")
        from hhobiharm.quadrature import cell_rule
        total = 0.0
        for c in range(mesh.n_cells):
            rule = cell_rule(mesh, c, 2 * (1 + 2) + 4)
            total += rule.weights @ case.u(rule.points) ** 2
        assert total == pytest.approx(9.0 / 64.0, abs=1e-12)

    def test_one_cell_hessian_seminorm(self):
        # field = 0 against u = x^2: squared broken Hessian seminorm = 4
        mesh = hb.build_rect_mesh(1, 1)
        C = np.zeros((3, 1))
        C[2, 0] = 1.0
        case = hb.polynomial_case(C)
        from hhobiharm.polyspace import CellBasis, PolyCoeffs
        from hhobiharm.quadrature import cell_rule
        zero = PolyCoeffs(CellBasis.for_cell(mesh, 0, 2), np.zeros(6))
        rep = error_norms(mesh, [zero], case, 0)
        # relative error: |u - 0|_H2 / |u|_H2 = 1 ...
        assert rep.err_h2_rel == pytest.approx(1.0, rel=1e-13)
        # ... and the squared absolute seminorm is int (u_xx)^2 = 4
        rule = cell_rule(mesh, 0, 8)
        H = np.asarray(case.hess(rule.points))
        absolute = rule.weights @ (H[:, 0] ** 2 + 2 * H[:, 1] ** 2
                                   + H[:, 2] ** 2)
        assert absolute == pytest.approx(4.0, rel=1e-14)

    def test_errors_nonnegative_enforced(self):
        with pytest.raises(ValueError):
            ErrorReport(h_max=0.1, dofs=3, err_h2_rel=-1.0, err_l2_rel=0.0)


class TestSharpNormDiagnostic:
    def test_decreases_under_refinement(self):
        case = hb.get_case("1")
        vals = [projection_gap_sharp_norm(hb.build_rect_mesh(n, n), 1, case)
                for n in (2, 4, 8)]
        assert vals[0] > vals[1] > vals[2] > 0
        # expected O(h^{k+1}) = O(h^2) decay of the projection gap
        assert vals[1] / vals[2] == pytest.approx(4.0, rel=0.3)


class TestRateTable:
    def _fake_reports(self):
        hs = [0.4, 0.2, 0.1, 0.05]
        return [ErrorReport(h_max=h, dofs=int(1 / h**2),
                            err_h2_rel=0.5 * h ** 2, err_l2_rel=0.1 * h ** 4)
                for h in hs]

    def test_fitted_slopes(self):
        table = RateTable(self._fake_reports())
        assert table.slope_h2 == pytest.approx(2.0, abs=1e-12)
        assert table.slope_l2 == pytest.approx(4.0, abs=1e-12)
        sd2, sdl = table.slopes_vs_sqrt_dofs
        assert sd2 == pytest.approx(-2.0, rel=0.05)

    def test_level_ordering_enforced(self):
        reports = self._fake_reports()[::-1]
        with pytest.raises(ValueError):
            RateTable(reports)

    def test_csv_schema(self, tmp_path):
        table = RateTable(self._fake_reports())
        path = tmp_path / "rates.csv"
        table.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 5
        assert rows[1][5] == ""         # no slope on the first level
        assert float(rows[2][5]) == pytest.approx(2.0, abs=1e-6)


class TestStudy:
    def test_errors_monotone_and_csv(self, tmp_path):
        case = hb.get_case("1")
        meshes = [hb.build_rect_mesh(n, n) for n in (4, 8, 16)]
        path = tmp_path / "study.csv"
        table = hb.convergence_study(meshes, "A", 1, "strong", case,
                                     csv_path=path)
        errs = [r.err_h2_rel for r in table.reports]
        assert errs[0] > errs[1] > errs[2]
        assert path.exists()
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4
