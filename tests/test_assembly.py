import numpy as np
import pytest
import scipy.linalg as sla

import hhobiharm as hb
from hhobiharm.assembly import BoundaryData, DofMap, assemble, recover_cells
from hhobiharm.localops import build_local_matrices, space_degrees
from hhobiharm.mesh import CellShape
from hhobiharm.polyspace import CellBasis
from hhobiharm.quadrature import cell_rule


def dense_full_system(mesh, variant, k, bc_mode, case, scaling="k2-all"):
    """Uncondensed global system assembled densely (oracle for condensation).

    Returns (A, b, cell_offsets, dofmap, prescribed) with the unknown order
    [all cell blocks | global face dofs]; `prescribed` holds one row of
    [trace | normal] values per face.
    """
    from hhobiharm.assembly import _prescribe_boundary

    nitsche = bc_mode == "nitsche"
    bdata = None
    if case is not None and not case.homogeneous:
        bdata = BoundaryData.from_case(case)
    dm = DofMap.create(mesh, variant, k, bc_mode)
    prescribed = _prescribe_boundary(mesh, variant, k,
                                     None if nitsche else bdata)

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
                start = n_cells_tot + dm.face_offset[f]
                gidx[tsl] = start + np.arange(dm.trace_dim)
                gidx[nsl] = start + dm.trace_dim + np.arange(dm.normal_dim)
                sign[nsl] = mesh.cell_signs[c][a]
            else:
                tr, nm = np.split(prescribed[f], [dm.trace_dim])
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

    @pytest.mark.parametrize("bc", ["strong", "nitsche"])
    def test_offsets_follow_interior_faces(self, vor16, bc):
        # The numbering of a loop over the interior faces in order.
        dm = DofMap.create(vor16, "B", 1, bc)
        expected = np.full(vor16.n_faces, -1, dtype=np.int64)
        pos = 0
        for f in vor16.interior_faces():
            expected[f] = pos
            pos += dm.dofs_per_interface
        assert np.array_equal(dm.face_offset, expected)
        assert dm.face_offset.dtype == expected.dtype
        assert dm.n_dofs == pos


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

        built = []

        def counting(mesh, c, **kw):
            built.extend(np.atleast_1d(c).tolist())
            return build_local_matrices(mesh, c, **kw)

        monkeypatch.setattr(assembly_mod, "build_local_matrices", counting)
        mesh = rect43_flipped
        assemble(mesh, "A", 1, bc, f=hb.get_case("2").f)
        # One build for the single class; in Nitsche mode each of the ten
        # boundary cells builds its own.  A stacked call builds one class
        # per shape it is given.
        on_boundary = len(set(mesh.face_cells[mesh.boundary_faces(), 0]))
        assert on_boundary == 10
        assert len(built) == (1 if bc == "strong" else 1 + on_boundary)

    @pytest.mark.parametrize("bc", ["strong", "nitsche"])
    def test_operators_built_only_on_class_shapes(self, vor16, bc,
                                                  monkeypatch):
        import hhobiharm.assembly as assembly_mod

        calls = []

        def recording(geom, c, **kw):
            calls.append((type(geom), np.atleast_1d(c).tolist(),
                          geom.n_cells))
            return build_local_matrices(geom, c, **kw)

        monkeypatch.setattr(assembly_mod, "build_local_matrices", recording)
        case = hb.get_case("2")
        assemble(vor16, "A", 1, bc, f=case.f,
                 bdata=BoundaryData.from_case(case))
        # Every Voronoi cell is a class of one, built once, on its shape:
        # each call builds every shape of a stack of CellShapes.
        assert all(kind is CellShape and ids == list(range(n))
                   for kind, ids, n in calls)
        assert sum(n for _, _, n in calls) == vor16.n_cells

    # The Nitsche inputs cover classes of one whose boundary data is
    # evaluated at translated points: every vor16 cell, and the ten boundary
    # cells of rect43_flipped.
    @pytest.mark.parametrize("mesh_name,variant,bc", [
        ("rect22", "A", "strong"),
        ("vor16", "A", "nitsche"),
        ("rect43_flipped", "B", "nitsche"),
        ("rect43_flipped", "A", "strong"),
    ])
    def test_recovered_cells_match_dense_solve(self, mesh_name, variant, bc,
                                               request):
        mesh = request.getfixturevalue(mesh_name)
        case = hb.get_case("2")
        k = 1
        A, b, offsets, dm, _ = dense_full_system(mesh, variant, k, bc, case)
        x_full = sla.solve(A, b, assume_a="pos")
        sys_ = assemble(mesh, variant, k, bc, f=case.f,
                        bdata=BoundaryData.from_case(case))
        x_faces = hb.solve(sys_)
        assert np.allclose(x_faces, x_full[offsets[-1]:], atol=1e-9)
        sol = recover_cells(sys_, x_faces)
        for c in range(mesh.n_cells):
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


def per_face_rest_bookkeeping(mesh, c, lay, dm):
    """Global index and loop-frame sign of every rest unknown of a cell, one
    face at a time (oracle for `_rest_map`)."""
    nc = lay.cell_dim
    gidx = np.full(lay.n_total - nc, -1, dtype=np.int64)
    sign = np.ones(lay.n_total - nc)
    for a, f in enumerate(mesh.cell_faces[c]):
        td, nd = lay.trace_dims[a], lay.normal_dims[a]
        if td == 0:
            continue
        t0, n0 = lay.trace_slice(a).start - nc, lay.normal_slice(a).start - nc
        s = float(mesh.cell_signs[c][a])
        sign[t0:t0 + td] = s ** np.arange(td)
        sign[n0:n0 + nd] = s ** np.arange(1, nd + 1)
        if dm.face_offset[f] >= 0:
            gidx[t0:t0 + td] = dm.face_offset[f] + np.arange(td)
            gidx[n0:n0 + nd] = dm.face_offset[f] + td + np.arange(nd)
    return gidx, sign


class TestRestMap:
    # rect43_flipped has a face stored against one of its cells' loops; in
    # Nitsche mode the boundary cells' layouts skip their boundary faces.
    @pytest.mark.parametrize("mesh_name", ["rect43_flipped", "vor16"])
    @pytest.mark.parametrize("variant,bc", [("A", "strong"), ("B", "strong"),
                                            ("C", "strong"), ("A", "nitsche"),
                                            ("B", "nitsche")])
    @pytest.mark.parametrize("k", range(4))
    def test_matches_per_face_loop(self, mesh_name, variant, bc, k, request):
        from hhobiharm.assembly import _rest_map
        from hhobiharm.localops import make_layout

        mesh = request.getfixturevalue(mesh_name)
        dm = DofMap.create(mesh, variant, k, bc)
        for c in range(mesh.n_cells):
            lay = make_layout(mesh, c, variant, k, nitsche=bc == "nitsche")
            face, block, power = _rest_map(lay)
            start = dm.face_offset[mesh.cell_faces[c][face]]
            gidx = np.where(start >= 0, start + block, -1)
            sign = mesh.cell_signs[c][face].astype(np.float64) ** power
            want_gidx, want_sign = per_face_rest_bookkeeping(mesh, c, lay, dm)
            assert np.array_equal(gidx, want_gidx)
            assert np.array_equal(sign, want_sign)


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
        tr, nm = np.split(sys_.prescribed[f], [sys_.dofmap.trace_dim])
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


@pytest.fixture(scope="module")
def rect86():
    return hb.build_rect_mesh(8, 6)


@pytest.fixture(scope="module")
def tri8():
    return hb.build_tri_mesh(8)


class TestStackedPrescription:
    """`_prescribe_boundary` against `reduce_face`, one face at a time."""

    @staticmethod
    def per_face(mesh, variant, k, u, dn_u):
        from hhobiharm.localops import reduce_face
        from hhobiharm.quadrature import (BC_EXTRA_DEGREE, face_degree,
                                          face_rule)

        deg = face_degree(k) + BC_EXTRA_DEGREE
        return {int(f): np.concatenate(reduce_face(
                    mesh, f, u, lambda p, f=f: dn_u(p, mesh.face_normal[f]),
                    variant, k, face_rule(mesh, f, deg)))
                for f in mesh.boundary_faces()}

    def check(self, mesh, variant, k, bdata, u, dn_u):
        from hhobiharm.assembly import _prescribe_boundary

        table = _prescribe_boundary(mesh, variant, k, bdata)
        dm = DofMap.create(mesh, variant, k, "strong")
        assert table.shape == (mesh.n_faces, dm.dofs_per_interface)
        want = self.per_face(mesh, variant, k, u, dn_u)
        for f, row in want.items():
            assert np.array_equal(table[f], row), f
        assert not table[mesh.interior_faces()].any()

    @pytest.mark.parametrize("mesh_name", ["rect86", "tri8", "vor64"])
    @pytest.mark.parametrize("variant", ["A", "B", "C"])
    @pytest.mark.parametrize("k", range(4))
    def test_matches_reduce_face_bitwise(self, mesh_name, variant, k,
                                         request):
        # The reference takes n . grad face by face, one matrix-vector
        # product each.  The outward normals of the unit square are +-e_x
        # and +-e_y, so the per-point products give the same bits.
        mesh = request.getfixturevalue(mesh_name)
        case = hb.get_case("2")
        self.check(mesh, variant, k, BoundaryData.from_case(case), case.u,
                   lambda p, n: np.asarray(case.grad(p)) @ n)

    @pytest.mark.parametrize("variant", ["A", "B"])
    @pytest.mark.parametrize("k", [0, 2])
    def test_user_neumann_gets_one_normal_per_point(self, vor64, variant, k):
        g_D = lambda p: np.sin(p[:, 0]) + p[:, 1] ** 3
        reads_normals = lambda p, n: (p[:, 0] * n[:, 0]
                                      - 2.0 * p[:, 1] ** 2 * n[:, 1]
                                      + n[:, 0] * n[:, 1])
        seen = []

        def g_N(p, n):
            seen.append((p.shape, n.shape))
            return reads_normals(p, n)

        bdata = BoundaryData(g_D=g_D, g_N=g_N)
        self.check(vor64, variant, k, bdata, g_D,
                   lambda p, n: reads_normals(p, np.tile(n, (len(p), 1))))
        # One call, on every rule point of every boundary face.
        assert len(seen) == 1
        assert seen[0][0] == seen[0][1] and seen[0][0][1] == 2

    def test_no_data_prescribes_zero(self, vor64):
        from hhobiharm.assembly import _prescribe_boundary

        assert not _prescribe_boundary(vor64, "A", 2, None).any()


def coo_reference(mesh, variant, k, bc, case, monkeypatch):
    """`assemble` beside a COO scatter of the same local Schur complements,
    entry by entry in the global numbering.  Returns the system and the
    reference matrix and right-hand side."""
    import scipy.sparse as sp
    import hhobiharm.assembly as assembly_mod

    seen = []
    real = assembly_mod._class_contribution

    def recording(mesh, members, shape, loc, *rest):
        out = real(mesh, members, shape, loc, *rest)
        seen.append((loc.S_rr, out[1], out[2]))
        return out

    monkeypatch.setattr(assembly_mod, "_class_contribution", recording)
    sys_ = assemble(mesh, variant, k, bc, f=case.f,
                    bdata=BoundaryData.from_case(case))
    n = sys_.n_dofs
    rows, cols, vals = [], [], []
    rhs = np.zeros(n)
    for S_rr, (gidx, rhs_vals), rec in seen:
        sign, g = rec.rest_sign, rec.rest_gidx
        S = S_rr[:, None] * sign[..., :, None] * sign[..., None, :]
        pair = (g[..., :, None] >= 0) & (g[..., None, :] >= 0)
        rows.append(np.broadcast_to(g[..., :, None], S.shape)[pair])
        cols.append(np.broadcast_to(g[..., None, :], S.shape)[pair])
        vals.append(S[pair])
        np.add.at(rhs, gidx, rhs_vals)
    ref = sp.coo_matrix((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n, n)).tocsr()
    return sys_, ref, rhs


def assert_same_system(matrix, rhs, ref, ref_rhs):
    """Equal CSR arrays and right-hand sides, bit for bit (signed zeros
    included)."""
    assert np.array_equal(matrix.indptr, ref.indptr)
    assert np.array_equal(matrix.indices, ref.indices)
    assert np.array_equal(matrix.data.view(np.uint64),
                          ref.data.view(np.uint64))
    assert np.array_equal(rhs.view(np.uint64), ref_rhs.view(np.uint64))


class TestBlockScatter:
    @pytest.mark.parametrize("mesh_name,variant,k,bc", [
        ("vor64", "A", 1, "strong"), ("vor64", "B", 2, "nitsche"),
        ("rect86", "A", 3, "strong"), ("rect86", "C", 3, "strong"),
        ("dented", "A", 2, "strong"), ("dented", "B", 1, "nitsche")])
    @pytest.mark.parametrize("batch", [None, 1])
    def test_matches_coo_scatter_bitwise(self, mesh_name, variant, k, bc,
                                         batch, request, monkeypatch):
        import hhobiharm.mesh as mesh_mod
        from conftest import DENTED

        if batch is not None:
            monkeypatch.setattr(mesh_mod, "_BATCH", batch)
        mesh = (DENTED if mesh_name == "dented"
                else request.getfixturevalue(mesh_name))
        sys_, ref, ref_rhs = coo_reference(mesh, variant, k, bc,
                                           hb.get_case("2"), monkeypatch)
        assert_same_system(sys_.matrix, sys_.rhs, ref, ref_rhs)

    @pytest.mark.parametrize("mesh_name,k,bc", [
        ("vor64", 2, "strong"), ("vor64", 1, "nitsche"),
        ("rect86", 3, "strong")])
    def test_matrix_is_canonical_and_bitwise_symmetric(self, mesh_name, k, bc,
                                                       request):
        mesh = request.getfixturevalue(mesh_name)
        case = hb.get_case("2")
        A = assemble(mesh, "B", k, bc, f=case.f,
                     bdata=BoundaryData.from_case(case)).matrix
        assert A.format == "csr" and A.has_canonical_format
        At = A.T.tocsr()
        At.sort_indices()
        assert np.array_equal(A.indptr, At.indptr)
        assert np.array_equal(A.indices, At.indices)
        assert np.array_equal(A.data.view(np.uint64), At.data.view(np.uint64))
