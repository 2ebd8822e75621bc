import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from vschro import evolve, spectral
from vschro.evolve import SolverError, SplitConfig, sparse_lu, trotter_evolve
from vschro.fields import MatrixField, make_rule, sample_field, shift_potential
from vschro.mesh import VectorField, build_grid, dual_pairing, lp_norm
from vschro.operators import (
    SparseOperator,
    assemble_diffusion,
    assemble_potential,
    assemble_scalar_diffusion,
)
from vschro.spectral import (
    eigenpairs,
    kernel_column,
    kernel_sweep,
    resolvent_norm,
    solve_resolvent,
)


def identity_q(grid):
    return sample_field(make_rule("identity_Q", grid.dim)[0], grid, "diffusion")


def random_field(grid, m, seed=0):
    rng = np.random.default_rng(seed)
    return VectorField(
        grid, rng.standard_normal((grid.n_cells, m)) + 1j * rng.standard_normal((grid.n_cells, m))
    )


def recorded_eigenvectors(monkeypatch) -> dict:
    """Filled, on each eigenpairs call, with the eigenvectors ARPACK returns,
    keyed by eigenvalue."""
    vectors = {}
    eigs = spectral.spla.eigs

    def recording_eigs(*args, **kwargs):
        lams, vecs = eigs(*args, **kwargs)
        vectors.update((complex(lam), vecs[:, i]) for i, lam in enumerate(lams))
        return lams, vecs

    monkeypatch.setattr(spectral.spla, "eigs", recording_eigs)
    return vectors


def rotation_problem(R=4.0, n=48, m=2):
    g = build_grid(1, R, n)
    D = assemble_diffusion(identity_q(g), g)
    V = shift_potential(sample_field(make_rule("rotation_V", 1, r=1.5)[0], g, "potential"))
    return g, D, V, D.on_components(m) + assemble_potential(V, m)


class TestResolvent:
    def test_minus_identity(self):
        g = build_grid(1, 1.0, 8)
        L = SparseOperator(-sp.identity(8, format="csr"), g, 1)
        rhs = random_field(g, 1, seed=1)
        u = solve_resolvent(L, 1.0, rhs)
        np.testing.assert_allclose(u.values, rhs.values / 2.0, rtol=1e-12)

    def test_hille_yosida_bound(self):
        g, A, V, L = rotation_problem()
        lam = 2.0
        for seed in range(50):
            rhs = random_field(g, 2, seed=seed)
            u = solve_resolvent(L, lam, rhs)
            assert lp_norm(u, 2) <= lp_norm(rhs, 2) / lam * (1 + 1e-10)

    def test_resolvent_identity(self):
        g, A, V, L = rotation_problem()
        lam, mu = 2.0, 3.5
        rhs = random_field(g, 2, seed=3)
        r_lam = solve_resolvent(L, lam, rhs)
        r_mu = solve_resolvent(L, mu, rhs)
        composed = solve_resolvent(L, lam, r_mu)
        lhs = r_lam - r_mu
        rhs2 = VectorField(g, (mu - lam) * composed.values)
        assert lp_norm(lhs - rhs2, 2) <= 1e-9 * max(lp_norm(lhs, 2), 1e-12)

    def test_near_spectrum_diagnostic(self):
        g = build_grid(1, 1.0, 8)
        L = SparseOperator(-sp.identity(8, format="csr"), g, 1)
        with pytest.raises(SolverError):
            solve_resolvent(L, -1.0, random_field(g, 1))

    @pytest.mark.parametrize("lam", [2.0, 2.0 + 1.0j], ids=["real_factor", "complex_factor"])
    def test_corrupted_factor_misses_the_residual(self, monkeypatch, lam):
        def corrupting_lu(matrix):
            lu = sparse_lu(matrix)
            return SimpleNamespace(solve=lambda b: lu.solve(b) + 1e-3)

        monkeypatch.setattr(spectral, "sparse_lu", corrupting_lu)
        g, A, V, L = rotation_problem()
        with pytest.raises(SolverError, match="residual"):
            solve_resolvent(L, lam, random_field(g, 2))


class TestOperatorNorm:
    @pytest.mark.parametrize("d, lam", [
        (np.full(25, -2.0), 1.0),
        (-np.arange(1.0, 31.0), 1.0),
        (-np.arange(1.0, 31.0), 0.5 - 2.0j),
        (-np.linspace(0.5, 4.0, 40) + 1j * np.linspace(-3.0, 3.0, 40), 1.0 + 1.0j),
    ], ids=["scaled_identity", "real", "complex_lam", "complex_diagonal"])
    def test_diagonal_operators(self, d, lam):
        # (lam - L)^-1 is diagonal, so its 2-norm is max 1/|lam - d| exactly
        g = build_grid(1, 1.0, len(d))
        L = SparseOperator(sp.diags(d).tocsr(), g, 1)
        assert resolvent_norm(L, lam) == pytest.approx(np.max(1.0 / np.abs(lam - d)), rel=1e-12)

    def test_resolvent_norm_against_dense_svd(self):
        # complex Airy-type generator at modest resolution
        g = build_grid(1, 40.0, 200)
        D = assemble_scalar_diffusion(identity_q(g), g)
        x = g.axis_coords
        B = SparseOperator((D - sp.diags(1j * x)).tocsr(), g, 1)
        lam = 2.0
        est = resolvent_norm(B, lam)
        dense = np.linalg.inv(lam * np.eye(200) - B.matrix.toarray())
        truth = np.linalg.svd(dense, compute_uv=False)[0]
        assert est == pytest.approx(truth, rel=1e-10)

    @pytest.mark.parametrize("lam", [1.0, 1.0 + 1.0j, 3.0 - 2.0j])
    def test_2d_coupled_resolvent_norm_against_dense_svd(self, lam):
        # anisotropic diffusion and a non-symmetric coupling: L is not normal
        g = build_grid(2, 3.0, 12)
        Q = sample_field(make_rule("anisotropic_Q", 2, theta=0.5, ratio=0.5)[0], g, "diffusion")
        V = sample_field(make_rule("coupled_V", 2, a=-2.0, b=1.0, c=-0.5)[0], g, "potential")
        L = assemble_diffusion(Q, g).on_components(2) + assemble_potential(V, 2)
        dense = L.matrix.toarray()
        assert np.abs(dense @ dense.T - dense.T @ dense).max() > 1e-3
        truth = np.linalg.svd(np.linalg.inv(lam * np.eye(L.dims) - dense), compute_uv=False)[0]
        assert resolvent_norm(L, lam) == pytest.approx(truth, rel=1e-10)

    def test_arpack_failure_is_solver_error(self, monkeypatch):
        def failing_eigsh(*args, **kwargs):
            raise spectral.spla.ArpackError(-9999)

        monkeypatch.setattr(spectral.spla, "eigsh", failing_eigsh)
        g = build_grid(1, 1.0, 30)
        L = SparseOperator(sp.diags(-np.arange(1.0, 31.0)).tocsr(), g, 1)
        with pytest.raises(SolverError, match="ARPACK norm estimate failed"):
            resolvent_norm(L, 1.0)


class TestEigenpairs:
    def test_dirichlet_laplacian_closed_form(self):
        R, n = 5.0, 160
        g = build_grid(1, R, n)
        A = assemble_diffusion(identity_q(g), g)
        res = eigenpairs(A, k=5, shift=0.0)
        h = g.spacing
        exact = [
            -4.0 / h**2 * math.sin(j * math.pi / (2 * (n + 1))) ** 2 - 1.0
            for j in range(1, 6)
        ]
        np.testing.assert_allclose(
            sorted(e.real for e in res.eigenvalues), sorted(exact), rtol=1e-8
        )
        assert max(res.residuals) <= 1e-8

    def test_degenerate_diagonal_subspace(self, monkeypatch):
        # top of the spectrum matches the scalar Dirichlet eigenvalues - 1
        vectors = recorded_eigenvectors(monkeypatch)
        R, n = 8.0, 240
        g = build_grid(1, R, n)
        A = assemble_diffusion(identity_q(g), g).on_components(2)
        V = sample_field(make_rule("degenerate_V", 1)[0], g, "potential")
        L = A + assemble_potential(V, 2)
        res = eigenpairs(L, k=4, shift=0.0)
        h = g.spacing
        exact = [
            -4.0 / h**2 * math.sin(j * math.pi / (2 * (n + 1))) ** 2 - 1.0
            for j in range(1, 5)
        ]
        np.testing.assert_allclose(
            sorted(e.real for e in res.eigenvalues), sorted(exact), rtol=1e-6
        )
        # eigenvectors live on the diagonal subspace (g, g)
        for lam in res.eigenvalues:
            v = vectors[lam].reshape(g.n_cells, 2)
            assert np.abs(v[:, 0] - v[:, 1]).max() <= 1e-6 * np.abs(v).max()

    def test_rotation_matches_dense_oracle(self):
        g, A, V, L = rotation_problem(R=6.0, n=150)
        res = eigenpairs(L, k=6, shift=0.0)
        dense = np.linalg.eigvals(L.matrix.toarray())
        for lam in res.eigenvalues:
            assert np.min(np.abs(dense - lam)) <= 1e-7 * (1.0 + abs(lam))

    def test_2d_coupled_matches_dense_eigvals(self):
        # the k eigenvalues nearest the shift, as the dense solver sees them
        g = build_grid(2, 2.0, 9)
        Q = sample_field(make_rule("cross_Q", 2, q12=0.3)[0], g, "diffusion")
        V = sample_field(make_rule("coupled_V", 2, a=-2.0, b=1.0, c=-0.5)[0], g, "potential")
        L = assemble_diffusion(Q, g).on_components(2) + assemble_potential(V, 2)
        shift = -20.0 + 1.0j
        res = eigenpairs(L, k=8, shift=shift)
        dense = scipy.linalg.eigvals(L.matrix.toarray())
        for lam in res.eigenvalues:
            assert np.min(np.abs(dense - lam)) <= 1e-9 * abs(lam)
        eighth_nearest = np.sort(np.abs(dense - shift))[7]
        assert max(abs(lam - shift) for lam in res.eigenvalues) <= eighth_nearest * (1 + 1e-9)
        assert max(res.residuals) <= 1e-8

    def test_residual_invariant(self, monkeypatch):
        vectors = recorded_eigenvectors(monkeypatch)
        g, A, V, L = rotation_problem(R=6.0, n=150)
        res = eigenpairs(L, k=6, shift=0.0)
        for lam in res.eigenvalues:
            v = vectors[lam]
            direct = np.linalg.norm(L.matrix @ v - lam * v) / np.linalg.norm(v)
            assert direct <= 1e-8

    def test_sorted_by_real_part(self):
        g, A, V, L = rotation_problem(R=6.0, n=150)
        res = eigenpairs(L, k=6, shift=0.0)
        re = [e.real for e in res.eigenvalues]
        assert re == sorted(re, reverse=True)

    def test_shift_on_an_eigenvalue_is_perturbed_once(self, monkeypatch):
        # -5 - L is singular; the shift moves by 1e-6 (1 + 5) and factors again
        shifts = []

        def recording_lu(matrix):
            shifts.append(matrix.diagonal()[4])
            return sparse_lu(matrix)

        monkeypatch.setattr(spectral, "sparse_lu", recording_lu)
        g = build_grid(1, 1.0, 30)
        L = SparseOperator(sp.diags(-np.arange(1.0, 31.0)).tocsr(), g, 1)
        res = eigenpairs(L, k=3, shift=-5.0)
        assert shifts == [0.0, pytest.approx(6e-6, rel=1e-9)]
        np.testing.assert_allclose(res.eigenvalues, [-4.0, -5.0, -6.0], rtol=1e-12)

    def test_arpack_failure_is_solver_error(self, monkeypatch):
        def failing_eigs(*args, **kwargs):
            raise spectral.spla.ArpackError(-9999)

        monkeypatch.setattr(spectral.spla, "eigs", failing_eigs)
        g, A, V, L = rotation_problem()
        with pytest.raises(SolverError, match="ARPACK failed near shift"):
            eigenpairs(L, k=2, shift=0.0)


class TestArithmeticField:
    """Real arithmetic exactly when L is real and lam has zero imaginary part."""

    @pytest.mark.parametrize("complex_operator, lam, field", [
        (False, 2.0, np.float64),
        (False, 2.0 + 0.0j, np.float64),
        (False, 2.0 + 1.0j, np.complex128),
        (True, 2.0, np.complex128),
        (True, 2.0 + 1.0j, np.complex128),
    ], ids=["real", "real_as_complex", "complex_lam", "complex_operator", "both_complex"])
    def test_factor_field(self, monkeypatch, complex_operator, lam, field):
        g, A, V, L = rotation_problem(n=32)
        if complex_operator:
            L = SparseOperator((L.matrix + sp.diags(np.full(L.dims, 0.5j))).tocsr(), g, 2)
        fields = []

        def recording_lu(matrix):
            fields.append(matrix.dtype)
            return sparse_lu(matrix)

        monkeypatch.setattr(spectral, "sparse_lu", recording_lu)
        solve_resolvent(L, lam, random_field(g, 2))
        resolvent_norm(L, lam)
        eigenpairs(L, k=2, shift=lam)
        assert fields == [field] * 3

    def test_complex_rhs_on_real_factor_matches_complex_lu(self):
        g, A, V, L = rotation_problem(n=64)
        rhs = random_field(g, 2, seed=5)
        reference = sparse_lu(L.shifted(1.5).astype(np.complex128)).solve(rhs.values.ravel())
        u = solve_resolvent(L, 1.5, rhs)
        np.testing.assert_allclose(u.values.ravel(), reference, rtol=1e-13)

    @pytest.mark.parametrize("lam", [1.0, 1.0 + 1.0j], ids=["real", "complex"])
    def test_resolvent_norm_of_nonsymmetric_real_operator(self, lam):
        g, A, V, L = rotation_problem(n=64)
        dense = L.matrix.toarray()
        assert np.abs(dense - dense.T).max() > 1e-3
        truth = np.linalg.norm(np.linalg.inv(lam * np.eye(L.dims) - dense), 2)
        assert resolvent_norm(L, lam) == pytest.approx(truth, rel=1e-10)

    def test_eigenpairs_of_real_operator_match_dense_eigvals(self):
        g, A, V, L = rotation_problem(n=64)
        shift = -3.0
        res = eigenpairs(L, k=6, shift=shift)
        dense = scipy.linalg.eigvals(L.matrix.toarray())
        assert np.abs(dense.imag).max() > 1.0  # conjugate pairs, not a real spectrum
        for lam in res.eigenvalues:
            assert np.min(np.abs(dense - lam)) <= 1e-9 * abs(lam)
        sixth_nearest = np.sort(np.abs(dense - shift))[5]
        assert max(abs(lam - shift) for lam in res.eigenvalues) <= sixth_nearest * (1 + 1e-9)
        assert max(res.residuals) <= 1e-8

    def test_real_eigenvalues_have_zero_imaginary_part(self):
        g = build_grid(1, 5.0, 100)
        res = eigenpairs(assemble_diffusion(identity_q(g), g), k=5)
        assert [lam.imag for lam in res.eigenvalues] == [0.0] * 5


def heat_kernel_sup(t, dim, q=1.0):
    """Sup of the free heat kernel for w_t = q Laplace(w)."""
    return float((4.0 * math.pi * q * t) ** (-dim / 2.0))


class TestKernel:
    def test_heat_kernel_sup_values(self):
        assert heat_kernel_sup(0.25, 1) == pytest.approx(math.pi**-0.5, rel=1e-12)
        assert heat_kernel_sup(0.25, 2) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_heat_kernel_sup(self):
        g = build_grid(1, 10.0, 2000)
        A = assemble_diffusion(identity_q(g), g)
        V = sample_field(make_rule("diag_V", 1, c=-1.0, m=2)[0], g, "potential")
        t = 0.01
        cfg = SplitConfig(scheme="lie", substep="backward_euler", n_steps=64)
        column = kernel_column(A, V, t, g.center_cell(), 0, cfg)
        expected = math.exp(-2.0 * t) * heat_kernel_sup(t, 1)
        assert np.abs(column.values).max() == pytest.approx(expected, rel=0.05)

    def test_l1_contraction_of_columns(self):
        g = build_grid(1, 6.0, 400)
        A = assemble_diffusion(identity_q(g), g)
        V = shift_potential(sample_field(make_rule("rotation_V", 1, r=1.5)[0], g, "potential"))
        cfg = SplitConfig(scheme="lie", substep="backward_euler", n_steps=40)
        for t in (0.05, 0.4):
            mass = lp_norm(kernel_column(A, V, t, g.center_cell(), 1, cfg), 1)
            assert mass <= math.exp(-t) + 1e-6

    def test_positive_coupling_gives_nonnegative_kernel(self):
        g = build_grid(1, 6.0, 200)
        A = assemble_diffusion(identity_q(g), g)
        V = sample_field(make_rule("coupled_V", 1, a=-2.0, b=1.0, c=0.5)[0], g, "potential")
        cfg = SplitConfig(scheme="lie", substep="backward_euler", n_steps=30,
                          solver_tol=1e-12)
        for j in (0, 1):
            column = kernel_column(A, V, 0.1, g.center_cell(), j, cfg)
            assert column.values.real.min() >= -1e-10

    def test_sweep_keeps_sup_norms_not_columns(self):
        g = build_grid(1, 6.0, 200)
        A = assemble_diffusion(identity_q(g), g)
        V = sample_field(make_rule("coupled_V", 1, a=-2.0, b=1.0, c=0.5)[0], g, "potential")
        cfg = SplitConfig(scheme="lie", substep="backward_euler")
        # the leading segment runs 4 x steps_per_segment = 8 steps
        sweep = kernel_sweep(A, V, (0.1, 0.05), g.center_cell(), 1, steps_per_segment=2)
        assert len(sweep) == 2 and all(type(s) is float for s in sweep)
        first = kernel_column(A, V, 0.05, g.center_cell(), 1, replace(cfg, n_steps=8))
        assert sweep[0] == np.abs(first.values).max()

    def test_adjoint_kernel_symmetry(self):
        # strang steps: the discrete evolution matrix of (Q, V^T) is the
        # transpose of that of (Q, V), so kernel columns swap indices
        g = build_grid(1, 5.0, 80)
        A = assemble_diffusion(identity_q(g), g)
        rng = np.random.default_rng(17)
        raw = rng.standard_normal((80, 2, 2))
        raw[:, 0, 0] -= 2.5
        raw[:, 1, 1] -= 2.5
        V = MatrixField(g, "potential", raw)
        VT = MatrixField(g, "potential", raw.transpose(0, 2, 1).copy())
        cfg = SplitConfig(scheme="strang", substep="crank_nicolson",
                          n_steps=20, solver_tol=1e-13)
        t = 0.2
        y, x = 30, 55
        i, j = 0, 1
        col = kernel_column(A, V, t, y, j, cfg)
        adj = kernel_column(A, VT, t, x, i, cfg)
        lhs = col.values[x, i]
        rhs = adj.values[y, j]
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_laplace_transform_consistency(self):
        g, A, V, L = rotation_problem(R=5.0, n=120)
        x = g.axis_coords
        fvals = np.zeros((g.n_cells, 2), dtype=complex)
        fvals[:, 0] = np.exp(-(x**2))
        f = VectorField(g, fvals)
        gvals = np.zeros((g.n_cells, 2), dtype=complex)
        gvals[:, 1] = np.exp(-((x - 1.0) ** 2))
        gfld = VectorField(g, gvals)
        lam = 2.0
        direct = dual_pairing(solve_resolvent(L, lam, f), gfld)
        cfg = SplitConfig(scheme="strang", substep="crank_nicolson",
                          n_steps=300, t_final=6.0, solver_tol=1e-11)
        traj = trotter_evolve(A, V, f, cfg, norm_ps=(2,), snapshot_stride=1)
        times = np.array(traj.snapshot_times)
        vals = np.array([dual_pairing(s, gfld) for s in traj.snapshots])
        quad = np.trapezoid(np.exp(-lam * times) * vals, times)
        assert abs(quad - direct) <= 0.01 * abs(direct)

    def test_decoupled_sweep_skips_the_zero_component(self, monkeypatch):
        # V = -I keeps component 1 at exact zero: the m = 2 sweep solves one
        # column per step, and its values equal the two-column solves' bit for bit
        g = build_grid(2, 3.2, 40)
        times = (0.16, 0.32, 0.64)

        def sweep(m):
            A = assemble_diffusion(identity_q(g), g)
            V = sample_field(make_rule("diag_V", 2, c=-1.0, m=m)[0], g, "potential")
            return kernel_sweep(A, V, times, g.center_cell(), 0, steps_per_segment=6)

        widths = []

        def counting_lu(matrix):
            lu = sparse_lu(matrix)

            def solve(rhs):
                widths.append(rhs.shape[1])
                return lu.solve(rhs)

            return SimpleNamespace(solve=solve)

        monkeypatch.setattr(evolve, "sparse_lu", counting_lu)
        skipped = sweep(2)
        assert widths and set(widths) == {1}

        def solve_all(self, u):  # every column, zero or not
            return self.lu.solve(u.reshape(-1, u.shape[-1]).T).T.reshape(u.shape)

        monkeypatch.setattr(evolve._DiffusionStepper, "apply", solve_all)
        widths.clear()
        assert sweep(2) == skipped and set(widths) == {2}
        # the scalar sweep does the same solves; its 1x1 Pade exponential of
        # -tau can differ from the 2x2 one in the last bit, hence the rtol
        np.testing.assert_allclose(sweep(1), skipped, rtol=1e-14, atol=0.0)
