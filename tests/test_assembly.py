import numpy as np
import pytest
import scipy.linalg as sla

import hhobiharm as hb
from hhobiharm.assembly import BoundaryData, DofMap, assemble, recover_cells
from hhobiharm.localops import build_local_matrices, space_degrees
from hhobiharm.polyspace import CellBasis
from hhobiharm.quadrature import cell_rule


def dense_full_system(mesh, variant, k, bc_mode, case, scaling="k2-all"):
    """Uncondensed global system assembled densely (oracle for condensation).

    Returns (A, b, cell_offsets, dofmap, prescribed) with the unknown order
    [all cell blocks | global face dofs].
    """
    from hhobiharm.assembly import _prescribe_boundary
    from hhobiharm.common import DEFAULT_QUAD

    nitsche = bc_mode == "nitsche"
    bdata = None
    if case is not None and not case.homogeneous:
        bdata = BoundaryData.from_case(case)
    dm = DofMap.create(mesh, variant, k, bc_mode)
    prescribed = {}
    if bc_mode == "strong":
        prescribed = _prescribe_boundary(mesh, variant, k, bdata, DEFAULT_QUAD)

    cell_dims = []
    all_ops = []
    for c in range(mesh.n_cells):
        ops = build_local_matrices(mesh, c, variant=variant, k=k,
                                   scaling=scaling, nitsche=nitsche,
                                   bdata=bdata, check_kernel=False)
        all_ops.append(ops)
        cell_dims.append(ops.layout.cell_dim)
    offsets = np.concatenate([[0], np.cumsum(cell_dims)])
    n_cells_tot = offsets[-1]
    N = n_cells_tot + dm.n_dofs
    A = np.zeros((N, N))
    b = np.zeros(N)

    for c, ops in enumerate(all_ops):
        lay = ops.layout
        n = lay.n_total
        gidx = np.full(n, -1, dtype=int)
        sign = np.ones(n)
        fixed = np.zeros(n)
        gidx[:lay.cell_dim] = offsets[c] + np.arange(lay.cell_dim)
        for a, f in enumerate(mesh.cell_faces[c]):
            if lay.trace_dims[a] == 0:
                continue
            tsl, nsl = lay.trace_slice(a), lay.normal_slice(a)
            if dm.face_offset[f] >= 0:
                gidx[tsl] = n_cells_tot + dm.trace_dofs(f)
                gidx[nsl] = n_cells_tot + dm.normal_dofs(f)
                sign[nsl] = mesh.cell_signs[c][a]
            else:
                tr, nm = prescribed[f]
                fixed[tsl] = tr
                fixed[nsl] = mesh.cell_signs[c][a] * nm
        b_loc = np.zeros(n)
        if case is not None:
            rule = cell_rule(mesh, c, 2 * (k + 2) + 2)
            cb = CellBasis.for_cell(mesh, c, space_degrees(variant, k)[0])
            b_loc[lay.cell_slice] = cb.eval(rule.points).T @ (
                rule.weights * case.f(rule.points))
        if nitsche and ops.load_boundary is not None:
            b_loc += ops.load_boundary
        for i in range(n):
            gi = gidx[i]
            if gi < 0:
                continue
            b[gi] += sign[i] * b_loc[i]
            for j in range(n):
                gj = gidx[j]
                val = sign[i] * sign[j] * ops.A[i, j]
                if gj >= 0:
                    A[gi, gj] += val
                else:
                    b[gi] -= sign[i] * ops.A[i, j] * fixed[j]
    return A, b, offsets, dm, prescribed


def dense_schur(A, b, n_cell_dofs):
    Acc = A[:n_cell_dofs, :n_cell_dofs]
    Acf = A[:n_cell_dofs, n_cell_dofs:]
    Aff = A[n_cell_dofs:, n_cell_dofs:]
    X = sla.solve(Acc, np.column_stack([Acf, b[:n_cell_dofs]]),
                  assume_a="pos")
    S = Aff - Acf.T @ X[:, :-1]
    g = b[n_cell_dofs:] - Acf.T @ X[:, -1]
    return S, g


class TestDofMap:
    def test_interface_dof_counts(self, vor16):
        for variant, per_face in (("A", None), ("B", None), ("C", None)):
            for k in (0, 1, 2, 3):
                dm = DofMap.create(vor16, variant, k, "strong")
                expected = 2 * k + 4 if variant == "B" else 2 * k + 3
                assert dm.dofs_per_interface == expected
                assert dm.n_dofs == expected * len(vor16.interior_faces())

    def test_rect22_k0_strong_homogeneous(self, rect22):
        dm = DofMap.create(rect22, "A", 0, "strong")
        assert len(rect22.interior_faces()) == 4
        assert dm.n_dofs == 12

    def test_one_cell_no_dofs(self):
        m = hb.build_rect_mesh(1, 1)
        dm = DofMap.create(m, "A", 1, "strong")
        assert dm.n_dofs == 0


class TestAssembleStructure:
    def test_exact_symmetry(self, vor16):
        case = hb.get_case("1")
        sys_ = assemble(vor16, "A", 1, "strong", f=case.f)
        diff = (sys_.matrix - sys_.matrix.T).toarray()
        assert np.all(diff == 0.0)

    @pytest.mark.parametrize("variant", ["A", "B", "C"])
    @pytest.mark.parametrize("bc", ["strong", "nitsche"])
    def test_spd_small_systems(self, variant, bc, rect22):
        if bc == "nitsche" and variant == "C":
            return
        case = hb.get_case("1")
        sys_ = assemble(rect22, variant, 1, bc, f=case.f)
        assert sys_.n_dofs <= 500
        ev = sla.eigvalsh(sys_.matrix.toarray())
        assert ev.min() > 0

    def test_one_cell_strong_fully_local(self):
        m = hb.build_rect_mesh(1, 1)
        case = hb.random_polynomial_case(2, seed=8)
        rep, sol, fld = hb.solve_and_measure(m, "A", 0, "strong", case)
        assert rep.dofs == 0
        assert rep.err_h2_rel < 1e-10


@pytest.fixture(scope="module")
def rect43():
    return hb.build_rect_mesh(4, 3)


@pytest.fixture(scope="module")
def tri3():
    return hb.build_tri_mesh(3)


@pytest.fixture(scope="module")
def rect43_flipped(rect43):
    return hb.with_flipped_face(rect43, int(rect43.interior_faces()[4]))


# Meshes whose cells share their operators with a translation class, under
# every (variant, bc) pair and k = 0..3.
SHARED_BUILDS = [(mesh, variant, k, bc)
                 for mesh in ("rect43", "tri3", "rect43_flipped")
                 for variant, bc in (("A", "strong"), ("B", "strong"),
                                     ("C", "strong"), ("A", "nitsche"),
                                     ("B", "nitsche"))
                 for k in range(4)]


class TestDenseSchurOracle:
    @pytest.mark.parametrize("mesh_name,variant,k,bc", [
        ("rect22", "A", 0, "strong"),
        ("rect22", "A", 1, "strong"),
        ("rect22", "B", 1, "strong"),
        ("rect22", "C", 1, "strong"),
        ("vor16", "A", 1, "strong"),
        ("vor16", "A", 1, "nitsche"),
        ("vor16", "B", 0, "nitsche"),
    ] + SHARED_BUILDS)
    def test_condensed_matrix_matches_dense_elimination(
            self, mesh_name, variant, k, bc, request):
        mesh = request.getfixturevalue(mesh_name)
        case = hb.get_case("2")  # non-homogeneous exercises the bc paths
        A, b, offsets, dm, _ = dense_full_system(mesh, variant, k, bc, case)
        S, g = dense_schur(A, b, offsets[-1])
        sys_ = assemble(mesh, variant, k, bc, f=case.f,
                        bdata=BoundaryData.from_case(case))
        got = sys_.matrix.toarray()
        scale = np.linalg.norm(S)
        assert np.linalg.norm(got - S) <= 1e-10 * scale
        assert np.linalg.norm(sys_.rhs - g) <= 1e-10 * max(np.linalg.norm(g), 1.0)

    @pytest.mark.parametrize("bc", ["strong", "nitsche"])
    def test_operators_built_once_per_class(self, rect43_flipped, bc,
                                            monkeypatch):
        import hhobiharm.assembly as assembly_mod

        calls = []

        def counting(mesh, c, **kw):
            calls.append(c)
            return build_local_matrices(mesh, c, **kw)

        monkeypatch.setattr(assembly_mod, "build_local_matrices", counting)
        mesh = rect43_flipped
        assemble(mesh, "A", 1, bc, f=hb.get_case("2").f)
        # One build for the single class; in Nitsche mode each of the ten
        # boundary cells builds its own.
        on_boundary = len(set(mesh.face_cells[mesh.boundary_faces(), 0]))
        assert on_boundary == 10
        assert len(calls) == (1 if bc == "strong" else 1 + on_boundary)

    def test_recovered_cells_match_dense_solve(self, rect22):
        case = hb.get_case("2")
        variant, k = "A", 1
        A, b, offsets, dm, _ = dense_full_system(rect22, variant, k,
                                                 "strong", case)
        x_full = sla.solve(A, b, assume_a="pos")
        sys_ = assemble(rect22, variant, k, "strong", f=case.f,
                        bdata=BoundaryData.from_case(case))
        x_faces = hb.solve(sys_)
        assert np.allclose(x_faces, x_full[offsets[-1]:], atol=1e-9)
        sol = recover_cells(sys_, x_faces)
        for c in range(rect22.n_cells):
            dense_cell = x_full[offsets[c]:offsets[c + 1]]
            assert np.allclose(sol.cell_coeffs[c], dense_cell, atol=1e-9)

    def test_uncondensed_residual_small(self, vor16):
        case = hb.get_case("1")
        variant, k = "A", 1
        sys_ = assemble(vor16, variant, k, "strong", f=case.f)
        x = hb.solve(sys_)
        sol = recover_cells(sys_, x)
        A, b, offsets, dm, _ = dense_full_system(vor16, variant, k,
                                                 "strong", case)
        full = np.concatenate([np.concatenate(sol.cell_coeffs), x])
        res = np.linalg.norm(A @ full - b) / np.linalg.norm(b)
        assert res <= 1e-9


class TestBoundaryConditions:
    def test_zero_load_zero_solution(self, rect22):
        sys_ = assemble(rect22, "A", 1, "strong", f=None)
        x = hb.solve(sys_)
        assert np.allclose(x, 0.0)
        sol = recover_cells(sys_, x)
        assert all(np.allclose(cc, 0.0) for cc in sol.cell_coeffs)

    def test_prescribed_boundary_values_match_data_projections(self, rect22):
        from hhobiharm.polyspace import FaceBasis, canonical_interp_face
        from hhobiharm.quadrature import face_rule

        case = hb.get_case("2")
        k = 1
        sys_ = assemble(rect22, "A", k, "strong", f=case.f,
                        bdata=BoundaryData.from_case(case))
        f = int(rect22.boundary_faces()[2])
        tr, nm = sys_.prescribed[f]
        fb = FaceBasis.for_face(rect22, f, k + 1)
        rule = face_rule(rect22, f, 2 * (k + 2) + 5)
        expected = canonical_interp_face(case.u, k, fb, rule).coeffs
        assert np.allclose(tr, expected, atol=1e-12)
        # normal data: projection of n . grad(u)
        n = rect22.face_normal[f]
        gb = FaceBasis.for_face(rect22, f, k)
        tab = gb.eval(rule.points)
        M = tab.T @ (rule.weights[:, None] * tab)
        vals = np.asarray(case.grad(rule.points)) @ n
        exp_nm = np.linalg.solve(M, tab.T @ (rule.weights * vals))
        assert np.allclose(nm, exp_nm, atol=1e-10)

    def test_nitsche_needs_gradient(self, rect22):
        bdata = BoundaryData(g_D=lambda p: p[:, 0],
                             g_N=lambda p, n: np.zeros(len(p)))
        with pytest.raises(hb.ConfigError):
            assemble(rect22, "A", 0, "nitsche", f=None, bdata=bdata)


class TestOrientationInvariance:
    @pytest.mark.parametrize("bc", ["strong", "nitsche"])
    def test_flip_interior_face_leaves_field_unchanged(self, vor16, bc):
        case = hb.get_case("2")
        k = 1
        rep1, _, fld1 = hb.solve_and_measure(vor16, "A", k, bc, case)
        f = int(vor16.interior_faces()[3])
        flipped = hb.with_flipped_face(vor16, f)
        rep2, _, fld2 = hb.solve_and_measure(flipped, "A", k, bc, case)
        rng = np.random.default_rng(0)
        for c in range(vor16.n_cells):
            lo = vor16.cell_polygon(c).min(axis=0)
            hi = vor16.cell_polygon(c).max(axis=0)
            pts = 0.5 * (lo + hi) + 0.1 * (hi - lo) * rng.uniform(-1, 1, (5, 2))
            v1, v2 = fld1[c](pts), fld2[c](pts)
            assert np.allclose(v1, v2, atol=1e-10 * max(1.0, np.abs(v1).max()))

