import math
import tracemalloc

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from vschro.fields import MatrixField, make_rule, sample_field
from vschro.mesh import Grid, VectorField, build_grid, dual_pairing, lp_norm
from vschro.operators import (
    AssemblyError,
    _backward_divergence,
    _face_average,
    EllipticityError,
    SparseOperator,
    apply_operator,
    assemble_diffusion,
    assemble_potential,
    assemble_scalar_diffusion,
    commutator_defect,
    export_matrix_market,
)


def identity_q(grid):
    return sample_field(make_rule("identity_Q", grid.dim)[0], grid, "diffusion")


def face_difference_matrices(grid: Grid) -> dict:
    """Sparse difference operators from cells to faces, the reference for the
    diffusion stencil.

    Keys per axis a: 'G<a>' is the normal difference (u_right - u_left)/h
    across each axis-a face, with zero ghosts outside the box; 'T<a>' is the
    transverse difference at axis-a faces (the four-neighbor average), only
    present in 2D.  Face index layout: axis-0 faces are f0 * N + j, axis-1
    faces are i * (N+1) + f1, so the 2D matrices are Kronecker products of
    the 1D face difference G, the two-cell face sum S and the centred cell
    difference C (scaled by 1/4 for the four-neighbor average).
    """
    N, h = grid.n_per_axis, grid.spacing
    G = sp.diags([1.0 / h, -1.0 / h], [0, -1], shape=(N + 1, N), format="csr")
    if grid.dim == 1:
        return {"G0": G}
    S = sp.diags([1.0, 1.0], [0, -1], shape=(N + 1, N), format="csr")
    C = sp.diags([0.25 / h, -0.25 / h], [1, -1], shape=(N, N), format="csr")
    ident = sp.identity(N, format="csr")
    return {
        "G0": sp.kron(G, ident, format="csr"),
        "T0": sp.kron(S, C, format="csr"),
        "G1": sp.kron(ident, G, format="csr"),
        "T1": sp.kron(C, S, format="csr"),
    }


def spgemm_scalar_diffusion(Q, grid, shifted=False):
    """Reference D for assemble_scalar_diffusion: the flux form
    -(G^T W_Q G) built from the face matrices by sparse products, then
    0.5 (D + D^T) and, if shifted, D - I."""
    mats = face_difference_matrices(grid)
    if grid.dim == 1:
        G = mats["G0"]
        D = -(G.T @ sp.diags(_face_average(grid, Q.values[:, 0, 0], 0).ravel()) @ G)
    else:
        def W(entry, axis):
            return sp.diags(_face_average(grid, Q.values[:, entry[0], entry[1]], axis).ravel())

        G0, T0, G1, T1 = mats["G0"], mats["T0"], mats["G1"], mats["T1"]
        D = -(
            G0.T @ W((0, 0), 0) @ G0
            + G1.T @ W((1, 1), 1) @ G1
            + 0.5 * (G0.T @ W((0, 1), 0) @ T0 + T0.T @ W((0, 1), 0) @ G0)
            + 0.5 * (G1.T @ W((0, 1), 1) @ T1 + T1.T @ W((0, 1), 1) @ G1)
        )
    D = (0.5 * (D + D.T)).tocsr()
    if shifted:
        D = (D - sp.identity(grid.n_cells)).tocsr()
    return D


def loop_face_difference_matrices(grid):
    """Reference build of face_difference_matrices, one face at a time."""
    N, h = grid.n_per_axis, grid.spacing
    if grid.dim == 1:
        rows, cols, vals = [], [], []
        for f in range(N + 1):
            if f < N:
                rows.append(f); cols.append(f); vals.append(1.0 / h)
            if f >= 1:
                rows.append(f); cols.append(f - 1); vals.append(-1.0 / h)
        return {"G0": sp.csr_matrix((vals, (rows, cols)), shape=(N + 1, N))}

    def cell(i, j):
        return i * N + j

    entries = {key: ([], [], []) for key in ("G0", "T0", "G1", "T1")}

    def add(key, face, c, v):
        r, cc, vv = entries[key]
        r.append(face); cc.append(c); vv.append(v)

    for f0 in range(N + 1):
        for j in range(N):
            face = f0 * N + j
            if f0 < N:
                add("G0", face, cell(f0, j), 1.0 / h)
            if f0 >= 1:
                add("G0", face, cell(f0 - 1, j), -1.0 / h)
            for i in (f0 - 1, f0):
                if 0 <= i < N:
                    if j + 1 < N:
                        add("T0", face, cell(i, j + 1), 0.25 / h)
                    if j - 1 >= 0:
                        add("T0", face, cell(i, j - 1), -0.25 / h)
    for i in range(N):
        for f1 in range(N + 1):
            face = i * (N + 1) + f1
            if f1 < N:
                add("G1", face, cell(i, f1), 1.0 / h)
            if f1 >= 1:
                add("G1", face, cell(i, f1 - 1), -1.0 / h)
            for j in (f1 - 1, f1):
                if 0 <= j < N:
                    if i + 1 < N:
                        add("T1", face, cell(i + 1, j), 0.25 / h)
                    if i - 1 >= 0:
                        add("T1", face, cell(i - 1, j), -0.25 / h)
    nf = (N + 1) * N
    return {
        key: sp.csr_matrix((v, (r, c)), shape=(nf, N * N)) for key, (r, c, v) in entries.items()
    }


def varying_q(grid, seed=0):
    """A per-cell Q: random positive q in 1D; in 2D random q11, q22 and a
    random q12 with q12^2 < q11 q22."""
    rng = np.random.default_rng(seed)
    if grid.dim == 1:
        return MatrixField(grid, "diffusion", rng.uniform(0.1, 3.0, (grid.n_cells, 1, 1)))
    q11, q22 = rng.uniform(0.1, 3.0, (2, grid.n_cells))
    q12 = rng.uniform(-0.99, 0.99, grid.n_cells) * np.sqrt(q11 * q22)
    return MatrixField(grid, "diffusion",
                       np.stack([np.stack([q11, q12], -1), np.stack([q12, q22], -1)], -2))


def random_field(grid, m, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((grid.n_cells, m)) + 1j * rng.standard_normal((grid.n_cells, m))
    return VectorField(grid, vals)


class TestFaceDifferences:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [3, 4, 7, 40])
    def test_bitwise_equal_to_loop_build(self, dim, n):
        g = build_grid(dim, 1.7, n)
        built, ref = face_difference_matrices(g), loop_face_difference_matrices(g)
        assert built.keys() == ref.keys()
        for key, R in ref.items():
            B = built[key]
            assert B.format == "csr" and B.shape == R.shape and B.dtype == R.dtype
            np.testing.assert_array_equal(B.indptr, R.indptr)
            np.testing.assert_array_equal(B.indices, R.indices)
            np.testing.assert_array_equal(B.data, R.data)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_cross_q_symmetric_negative_definite(self, n, seed):
        # per-cell q12^2 < q11 q22; face averages of such matrices stay positive definite
        g = build_grid(2, 1.0, n)
        A = assemble_diffusion(varying_q(g, seed), g).matrix
        assert abs(A - A.T).max() == 0.0
        assert np.linalg.eigvalsh(A.toarray()).max() <= -1.0 + 1e-10


class TestDirectStencil:
    """assemble_scalar_diffusion writes the stencil that the sparse-product
    reference builds, and assemble_diffusion that stencil minus the identity,
    bit for bit in data, indices and indptr."""

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("n", [5, 8, 33])
    @pytest.mark.parametrize("dim, rule, params", [
        (1, "identity_Q", {}),
        (1, "anisotropic_Q", {"ratio": 0.25}),
        (1, "varying", {}),
        (2, "identity_Q", {}),
        (2, "anisotropic_Q", {"theta": 0.0, "ratio": 0.3}),
        (2, "anisotropic_Q", {"theta": 0.6, "ratio": 0.25}),
        (2, "cross_Q", {"q12": 0.3}),
        (2, "varying", {}),
    ])
    def test_bitwise_equal_to_spgemm_reference(self, dim, rule, params, n, shifted):
        g = build_grid(dim, 1.7, n)
        if rule == "varying":
            Q = varying_q(g, seed=n)
        else:
            Q = sample_field(make_rule(rule, dim, **params)[0], g, "diffusion")
        built = assemble_diffusion(Q, g).matrix if shifted else assemble_scalar_diffusion(Q, g)
        ref = spgemm_scalar_diffusion(Q, g, shifted)
        assert isinstance(built, sp.csr_matrix) and built.shape == ref.shape == (g.n_cells,) * 2
        for name in ("data", "indices", "indptr"):
            a, b = getattr(built, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert np.all(built.data != 0.0)  # no explicit zeros, as in the reference

    def test_on_components_is_kron(self):
        g = build_grid(2, 1.0, 5)
        D = assemble_diffusion(varying_q(g), g)
        assert D.m == 1 and D.matrix.shape == (g.n_cells, g.n_cells)
        A = D.on_components(3)
        assert A.m == 3 and A.grid == g
        assert abs(A.matrix - sp.kron(D.matrix, sp.identity(3))).nnz == 0
        assert abs(D.on_components(1).matrix - D.matrix).nnz == 0
        with pytest.raises(AssemblyError, match="scalar"):
            A.on_components(2)


@pytest.mark.parametrize("rule, params", [("identity_Q", {}),
                                           ("anisotropic_Q", {"theta": 0.4543, "ratio": 0.5})])
def test_assembly_transient_is_a_small_multiple_of_the_matrix(rule, params):
    """assemble_diffusion's traced peak stays under 3.5 times the bytes of the
    matrix it returns, on the 5-point and the 9-point stencil at 128^2.
    (Copying the stencil dict at every sum, then an n x k table, peaked at
    5.1 and 5.3 times.)"""
    g = build_grid(2, 1.7, 128)
    Q = sample_field(make_rule(rule, 2, **params)[0], g, "diffusion")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        D = assemble_diffusion(Q, g).matrix
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * (D.data.nbytes + D.indices.nbytes + D.indptr.nbytes)


def branch_face_average(grid, cellvals, axis):
    """Reference: face means written out per dimension and axis."""
    N = grid.n_per_axis
    if grid.dim == 1:
        out = np.empty(N + 1)
        out[1:N] = 0.5 * (cellvals[:-1] + cellvals[1:])
        out[0] = cellvals[0]
        out[N] = cellvals[-1]
        return out
    v = cellvals.reshape(N, N)
    if axis == 0:
        out = np.empty((N + 1, N))
        out[1:N, :] = 0.5 * (v[:-1, :] + v[1:, :])
        out[0, :] = v[0, :]
        out[N, :] = v[-1, :]
    else:
        out = np.empty((N, N + 1))
        out[:, 1:N] = 0.5 * (v[:, :-1] + v[:, 1:])
        out[:, 0] = v[:, 0]
        out[:, N] = v[:, -1]
    return out.ravel()


def branch_backward_divergence(grid, w):
    """Reference: one-sided flux divergence written out per dimension."""
    N, h = grid.n_per_axis, grid.spacing
    m = w.shape[1]
    if grid.dim == 1:
        wa = w[:, :, 0]
        out = np.empty_like(wa)
        out[0] = wa[0] / h
        out[1:] = (wa[1:] - wa[:-1]) / h
        return out
    v = w.reshape(N, N, m, 2)
    out = np.zeros((N, N, m), dtype=w.dtype)
    out[0, :, :] += v[0, :, :, 0] / h
    out[1:, :, :] += (v[1:, :, :, 0] - v[:-1, :, :, 0]) / h
    out[:, 0, :] += v[:, 0, :, 1] / h
    out[:, 1:, :] += (v[:, 1:, :, 1] - v[:, :-1, :, 1]) / h
    return out.reshape(N * N, m)


class TestCellStencils:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [3, 4, 17])
    def test_face_average_bitwise_equal_to_reference(self, dim, n):
        g = build_grid(dim, 1.3, n)
        cellvals = np.random.default_rng(n).uniform(0.1, 3.0, g.n_cells)
        for axis in range(dim):
            built, ref = _face_average(g, cellvals, axis), branch_face_average(g, cellvals, axis)
            assert built.shape == tuple(n + 1 if a == axis else n for a in range(dim))
            assert built.dtype == ref.dtype and built.ravel().tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [3, 4, 17])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_backward_divergence_bitwise_equal_to_reference(self, dim, n, m, dtype):
        g = build_grid(dim, 1.3, n)
        raw = np.random.default_rng(5 * n + m).standard_normal((2, g.n_cells, m, dim))
        w = (raw[0] + 1j * raw[1]).astype(dtype) if dtype == np.complex128 else raw[0]
        built, ref = _backward_divergence(g, w), branch_backward_divergence(g, w)
        assert built.shape == ref.shape == (g.n_cells, m)
        assert built.dtype == ref.dtype and built.tobytes() == ref.tobytes()


class TestDiffusionAssembly:
    def test_three_point_stencil(self):
        g = build_grid(1, 1.0, 3)  # h = 0.5
        A = assemble_diffusion(identity_q(g), g).matrix.toarray()
        expected = np.array([[-9.0, 4.0, 0.0], [4.0, -9.0, 4.0], [0.0, 4.0, -9.0]])
        np.testing.assert_allclose(A, expected, atol=1e-13)

    def test_stencil_scales_linearly_in_q(self):
        g = build_grid(1, 1.0, 5)
        q = 2.7
        Aq = assemble_scalar_diffusion(
            sample_field(lambda x: np.full((len(x), 1, 1), q), g, "diffusion"), g
        ).toarray()
        A1 = assemble_scalar_diffusion(identity_q(g), g).toarray()
        np.testing.assert_allclose(Aq, q * A1, atol=1e-12)

    def test_cross_term_energy_bound(self):
        # <A u, u> <= -eta1 ||G u||^2 - ||u||^2, eta1 = 1 - |q12|
        g = build_grid(2, 2.0, 12)
        Q = sample_field(make_rule("cross_Q", 2, q12=0.3)[0], g, "diffusion")
        A = assemble_diffusion(Q, g)
        eta1 = 1.0 - 0.3
        mats = face_difference_matrices(g)
        rng = np.random.default_rng(1)
        for _ in range(100):
            u = rng.standard_normal(g.n_cells)
            quad = u @ (A.matrix @ u)
            grad2 = np.sum((mats["G0"] @ u) ** 2) + np.sum((mats["G1"] @ u) ** 2)
            assert quad <= -eta1 * grad2 - u @ u + 1e-10

    def test_symmetry_invariant(self):
        g = build_grid(2, 1.5, 9)

        def rule(x):
            vals = np.full((len(x), 2, 2), 0.25)
            vals[:, 0, 0] = 1.5 + 0.2 * np.sin(x[:, 0])
            vals[:, 1, 1] = 1.0 + 0.1 * x[:, 1] ** 2
            return vals

        Q = sample_field(rule, g, "diffusion")
        for A in (assemble_diffusion(Q, g), assemble_diffusion(Q, g).on_components(2)):
            assert abs(A.matrix - A.matrix.T).nnz == 0

    def test_largest_eigenvalue_below_minus_one(self):
        # power iteration on A + cI locates lambda_max(A)
        g = build_grid(1, 3.0, 40)
        A = assemble_diffusion(identity_q(g), g).matrix
        c = abs(A).sum(axis=1).max() + 1.0
        shifted = (A + c * sp.identity(A.shape[0])).tocsr()
        v = np.ones(A.shape[0]) / math.sqrt(A.shape[0])
        lam = 0.0
        for _ in range(4000):
            w = shifted @ v
            lam_new = v @ w
            v = w / np.linalg.norm(w)
            if abs(lam_new - lam) < 1e-12 * abs(lam_new):
                break
            lam = lam_new
        assert lam - c <= -1.0 + 1e-10

    def test_m_matrix_sign_pattern(self):
        g = build_grid(2, 2.0, 8)
        A = assemble_diffusion(identity_q(g), g).matrix.tocoo()
        off = A.data[A.row != A.col]
        assert np.all(off >= 0.0)

    def test_ellipticity_violation_rejected(self):
        g = build_grid(1, 1.0, 6)
        x0 = g.axis_coords[2]
        bad = sample_field(lambda x: (x[:, 0] - x0)[:, None, None], g, "diffusion")
        with pytest.raises(EllipticityError):
            assemble_scalar_diffusion(bad, g)


class TestPotentialAssembly:
    def test_constant_diag_is_minus_identity(self):
        g = build_grid(1, 1.0, 6)
        V = sample_field(make_rule("diag_V", 1, c=-1.0, m=2)[0], g, "potential")
        op = assemble_potential(V, 2)
        np.testing.assert_allclose(op.matrix.toarray(), -np.eye(12), atol=1e-15)

    def test_upper_triangular_action(self):
        g = build_grid(1, 2.0, 9)
        V = sample_field(make_rule("upper_triangular_V", 1)[0], g, "potential")
        op = assemble_potential(V, 2)
        f = random_field(g, 2, seed=2)
        out = apply_operator(op, f)
        x = g.axis_coords
        np.testing.assert_allclose(out.values[:, 0], x * f.values[:, 1], rtol=1e-14)
        np.testing.assert_allclose(out.values[:, 1], 0.0, atol=1e-15)

    def test_quadratic_form_matches_cellwise_sum(self):
        g = build_grid(1, 2.0, 16)
        rng = np.random.default_rng(9)
        vals = rng.standard_normal((16, 2, 2))
        V = MatrixField(g, "potential", vals)
        op = assemble_potential(V, 2)
        f = random_field(g, 2, seed=3)
        lhs = dual_pairing(apply_operator(op, f), f)
        rhs = sum(
            np.vdot(f.values[c], vals[c] @ f.values[c]) * g.cell_measure for c in range(16)
        )
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)

    def test_dimension_mismatch(self):
        g = build_grid(1, 1.0, 5)
        V = sample_field(make_rule("diag_V", 1, c=-1.0, m=2)[0], g, "potential")
        with pytest.raises(AssemblyError):
            assemble_potential(V, 3)


class TestApply:
    def test_identity(self):
        g = build_grid(1, 1.0, 8)
        ident = SparseOperator(sp.identity(16, format="csr"), g, 2)
        f = random_field(g, 2, seed=1)
        np.testing.assert_allclose(apply_operator(ident, f).values, f.values)

    def test_linearity_of_sum(self):
        g = build_grid(1, 3.0, 24)
        A = assemble_diffusion(identity_q(g), g).on_components(2)
        V = assemble_potential(
            sample_field(make_rule("rotation_V", 1, r=1.5)[0], g, "potential"), 2
        )
        f = random_field(g, 2, seed=6)
        lhs = apply_operator(A + V, f)
        rhs = apply_operator(A, f).values + apply_operator(V, f).values
        assert np.linalg.norm(lhs.values - rhs) < 1e-13 * np.linalg.norm(lhs.values)

    def test_dirichlet_eigenfunction(self):
        # A sin(pi (x+R) / 2R) ~ (-pi^2/(4R^2) - 1) sin(...), L2 error O(h^2)
        R = 2.0
        errs = []
        for n in (64, 128):
            g = build_grid(1, R, n)
            A = assemble_diffusion(identity_q(g), g)
            x = g.axis_coords
            v = np.sin(math.pi * (x + R) / (2 * R))
            f = VectorField(g, v[:, None].astype(complex))
            target = (-math.pi**2 / (4 * R**2) - 1.0) * v
            out = apply_operator(A, f)
            errs.append(lp_norm(out - VectorField(g, target[:, None].astype(complex)), 2))
        assert errs[1] <= errs[0] / 3.5

    def test_dissipativity_with_validated_potential(self):
        from vschro.fields import shift_potential

        g = build_grid(1, 4.0, 30)
        A = assemble_diffusion(identity_q(g), g).on_components(2)
        V = shift_potential(
            sample_field(make_rule("rotation_V", 1, r=1.5)[0], g, "potential")
        )
        L = A + assemble_potential(V, 2)
        rng = np.random.default_rng(12)
        for _ in range(100):
            f = random_field(g, 2, seed=rng.integers(1 << 30))
            quad = dual_pairing(apply_operator(L, f), f).real
            assert quad <= -lp_norm(f, 2) ** 2 + 1e-10


class TestCommutator:
    def test_constant_m_vanishes(self):
        g = build_grid(1, 5.0, 64)
        M = sample_field(make_rule("coupled_V", 1, a=-2.0, b=1.0, c=0.5)[0], g, "potential")
        x = g.axis_coords
        f = VectorField(g, np.column_stack([np.exp(-x**2), np.exp(-x**2)]).astype(complex))
        assert commutator_defect(identity_q(g), M, f) <= 1e-12

    def test_scalar_quadratic_m_first_order(self):
        # m = 1, M(x) = x^2 smoothly cut off near the boundary
        defects = []
        for n in (200, 400):
            g = build_grid(1, 10.0, n)
            x = g.axis_coords
            cut = np.exp(-((x / 8.0) ** 8))
            vals = (x**2 * cut)[:, None, None]
            M = MatrixField(g, "potential", vals)
            f = VectorField(g, np.exp(-(x**2))[:, None].astype(complex))
            defects.append(commutator_defect(identity_q(g), M, f))
        assert defects[1] <= defects[0] / 1.4  # O(h) or better

    def test_lipschitz_m_recorded_not_asserted(self):
        # |x| entries are merely Lipschitz; the defect is finite and logged
        g = build_grid(1, 6.0, 128)
        V = sample_field(make_rule("degenerate_V", 1)[0], g, "potential")
        x = g.axis_coords
        f = VectorField(g, np.column_stack([np.exp(-x**2), 0 * x]).astype(complex))
        d = commutator_defect(identity_q(g), V, f)
        assert np.isfinite(d)


class TestSparseLayout:
    def test_csr_invariants(self):
        g = build_grid(2, 2.0, 6)
        A = assemble_diffusion(identity_q(g), g).on_components(2)
        mat = A.matrix
        assert mat.has_sorted_indices
        assert np.all(np.diff(mat.indptr) >= 0)
        assert A.dims == g.n_cells * 2


class TestExport:
    def test_matrix_market_roundtrip(self, tmp_path):
        g = build_grid(1, 1.0, 6)
        A = assemble_diffusion(identity_q(g), g)
        path = tmp_path / "op.mtx"
        export_matrix_market(A, path)
        back = scipy.io.mmread(path).tocsr()
        assert (abs(back - A.matrix)).max() < 1e-15
