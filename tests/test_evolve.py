import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import vschro.evolve
from vschro.evolve import (
    DEFAULT_NORM_PS,
    SolverError,
    _DiffusionStepper,
    _PotentialStepper,
    SplitConfig,
    checked_solve,
    matrix_norm,
    heat_step,
    sparse_lu,
    split_step,
    trotter_evolve,
)
from vschro.fields import MatrixField, make_rule, matrix_exp, sample_field, shift_potential
from vschro.mesh import VectorField, _amplitude_lp_norm, build_grid, lp_norm
from vschro.operators import assemble_diffusion, assemble_potential
from vschro.problems import build_problem
from vschro.verify import run_positivity_check


def identity_q(grid):
    return sample_field(make_rule("identity_Q", grid.dim)[0], grid, "diffusion")


def block(*values):
    """The (fields, m, n_cells) component-major block of (n_cells, m) values."""
    return np.stack([v.T for v in values])


def potential_step(V, f, tau):
    """The potential substep of split_step alone: u(x) <- e^{tau V(x)} u(x)."""
    return VectorField(f.grid, _PotentialStepper(V, tau).apply(block(f.values))[0].T)


def diffusion_step(D, f, tau, cfg):
    """The diffusion substep of split_step alone: one implicit step of the
    scalar block D on every component of f."""
    return VectorField(f.grid, _DiffusionStepper(D.matrix, tau, cfg).apply(block(f.values))[0].T)


def heat_evolve(Q, w, t, cfg):
    """w_t = div(Q grad w) to time t in cfg.n_steps steps, from a fresh heat_step."""
    return heat_step(Q, t / cfg.n_steps, cfg).run(w, cfg.n_steps, norm_ps=()).final


def gaussian_heat_profile(x, t, sigma, q=1.0):
    """Solution of w_t = q w_xx started from exp(-x^2 / (2 sigma^2))."""
    s2 = sigma**2 + 2.0 * q * t
    return sigma / np.sqrt(s2) * np.exp(-(x**2) / (2.0 * s2))


def test_gaussian_profile_solves_heat_equation():
    x = np.linspace(-3, 3, 401)
    dx = x[1] - x[0]
    t, dt, sigma = 0.3, 1e-5, 0.8
    u0 = gaussian_heat_profile(x, t - dt, sigma)
    u1 = gaussian_heat_profile(x, t, sigma)
    u2 = gaussian_heat_profile(x, t + dt, sigma)
    dudt = (u2 - u0) / (2 * dt)
    lap = (u1[2:] - 2 * u1[1:-1] + u1[:-2]) / dx**2
    assert np.abs(dudt[1:-1] - lap).max() < 1e-4


def bump_field(grid, m, widths=(1.0, 0.7)):
    x = grid.axis_coords
    vals = np.zeros((grid.n_cells, m), dtype=complex)
    for k in range(m):
        vals[:, k] = np.exp(-(x**2) / (2.0 * widths[k % len(widths)] ** 2))
    return VectorField(grid, vals)


class TestSplitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SplitConfig(scheme="verlet")
        with pytest.raises(ValueError):
            SplitConfig(n_steps=0)
        with pytest.raises(ValueError):
            SplitConfig(t_final=-1.0)


class TestDirectSolve:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize(
        "dim,q_rule,q_params",
        [
            (1, "identity_Q", {}),
            (1, "anisotropic_Q", {"ratio": 0.25}),
            (2, "identity_Q", {}),
            (2, "anisotropic_Q", {"theta": 0.6, "ratio": 0.25}),
            (2, "cross_Q", {"q12": 0.3}),
        ],
    )
    def test_matches_dense_solve(self, dim, q_rule, q_params, m):
        g = build_grid(dim, 2.0, 24 if dim == 1 else 7)
        Q = sample_field(make_rule(q_rule, dim, **q_params)[0], g, "diffusion")
        A = assemble_diffusion(Q, g)
        dense = np.kron(A.matrix.toarray(), np.eye(m))  # A acts on each component
        ident = np.eye(g.n_cells * m)
        rng = np.random.default_rng(dim * 10 + m)
        real = rng.standard_normal((g.n_cells, m))
        tau = 0.07
        for vals in (real, real + 1j * rng.standard_normal((g.n_cells, m))):
            flat = vals.ravel()
            refs = {
                "backward_euler": np.linalg.solve(ident - tau * dense, flat),
                "crank_nicolson": np.linalg.solve(
                    ident - 0.5 * tau * dense, (ident + 0.5 * tau * dense) @ flat
                ),
            }
            for substep, ref in refs.items():
                cfg = SplitConfig(substep=substep)
                out = diffusion_step(A, VectorField(g, vals), tau, cfg).values.ravel()
                assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_rejects_a_component_operator(self):
        # the step takes the scalar block itself; kron(D, I_m) is not sliced back
        g = build_grid(1, 2.0, 8)
        full = assemble_diffusion(identity_q(g), g).on_components(2)
        V = sample_field(make_rule("diag_V", 1, c=-1.0, m=2)[0], g, "potential")
        f = bump_field(g, 2)
        with pytest.raises(ValueError, match="scalar"):
            split_step(full, V, 0.1, SplitConfig())
        with pytest.raises(ValueError, match="scalar"):
            trotter_evolve(full, V, f, SplitConfig(n_steps=2, t_final=0.1))

    def test_residual_miss_raises(self, corrupt_factors):
        g = build_grid(1, 2.0, 16)
        A = assemble_diffusion(identity_q(g), g)
        rng = np.random.default_rng(5)
        f = VectorField(g, rng.standard_normal((16, 2)))
        corrupt_factors()
        with pytest.raises(SolverError, match="residual"):
            diffusion_step(A, f, 0.1, SplitConfig())

    @pytest.mark.parametrize("exc", [RuntimeError("Factor is exactly singular"), MemoryError()])
    def test_factorization_failure_raises_solver_error(self, monkeypatch, exc):
        def failing_splu(*args, **kwargs):
            raise exc

        monkeypatch.setattr("scipy.sparse.linalg.splu", failing_splu)
        g = build_grid(1, 2.0, 16)
        A = assemble_diffusion(identity_q(g), g)
        with pytest.raises(SolverError, match="16-row"):
            diffusion_step(A, bump_field(g, 2), 0.1, SplitConfig())

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=2),
        n=st.integers(min_value=3, max_value=12),
        tau=st.floats(min_value=1e-3, max_value=10.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_backward_euler_positive_and_contractive(self, dim, n, tau, seed):
        # diagonal Q makes I - tau A an M-matrix: its inverse is entrywise
        # nonnegative with row and column sums <= 1
        g = build_grid(dim, 2.0, n)
        rng = np.random.default_rng(seed)
        q = np.zeros((g.n_cells, dim, dim))
        for a in range(dim):
            q[:, a, a] = rng.uniform(0.1, 10.0, g.n_cells)
        A = assemble_diffusion(MatrixField(g, "diffusion", q), g)
        f = VectorField(g, rng.random((g.n_cells, 2)))
        cfg = SplitConfig(substep="backward_euler")
        out = diffusion_step(A, f, tau, cfg)
        assert np.all(out.values.imag == 0.0)
        assert out.values.real.min() >= -1e-14 * f.values.real.max()
        for p in (1, math.inf):
            assert lp_norm(out, p) <= lp_norm(f, p) * (1.0 + 1e-14)


class TestPotentialStep:
    def test_tau_zero_identity(self):
        g = build_grid(1, 2.0, 16)
        V = sample_field(make_rule("diag_V", 1, c=-1.0, m=2)[0], g, "potential")
        f = bump_field(g, 2)
        np.testing.assert_allclose(potential_step(V, f, 0.0).values, f.values)

    def test_diag_halving(self):
        g = build_grid(1, 2.0, 16)
        V = sample_field(make_rule("diag_V", 1, c=-1.0, m=2)[0], g, "potential")
        f = bump_field(g, 2)
        out = potential_step(V, f, math.log(2.0))
        np.testing.assert_allclose(out.values, 0.5 * f.values, rtol=1e-13)

    def test_rotation_preserves_cell_norms(self):
        g = build_grid(1, 4.0, 32)
        V = sample_field(make_rule("rotation_V", 1, r=1.5)[0], g, "potential")
        f = bump_field(g, 2)
        out = potential_step(V, f, 0.37)
        np.testing.assert_allclose(
            np.linalg.norm(out.values, axis=1), np.linalg.norm(f.values, axis=1), atol=1e-12
        )

    def test_shifted_potential_contracts(self):
        g = build_grid(1, 4.0, 32)
        V = shift_potential(sample_field(make_rule("rotation_V", 1, r=1.5)[0], g, "potential"))
        f = bump_field(g, 2)
        tau = 0.2
        out = potential_step(V, f, tau)
        assert lp_norm(out, 2) <= math.exp(-tau) * lp_norm(f, 2) + 1e-10


class TestDiffusionStep:
    def test_backward_euler_eigenvector(self):
        R, n = 2.0, 40
        g = build_grid(1, R, n)
        A = assemble_diffusion(identity_q(g), g)
        h = g.spacing
        k = 3
        # discrete Dirichlet eigenvector and its exact discrete eigenvalue
        x = g.axis_coords
        v = np.sin(k * math.pi * (x + R) / (2 * R))
        lam = -4.0 / h**2 * math.sin(k * math.pi / (2 * (n + 1))) ** 2 - 1.0
        tau = 0.31
        cfg = SplitConfig(substep="backward_euler")
        out = diffusion_step(A, VectorField(g, v[:, None].astype(complex)), tau, cfg)
        np.testing.assert_allclose(
            out.values[:, 0].real, v / (1.0 - tau * lam), atol=1e-10
        )

    def test_crank_nicolson_third_order_local(self):
        g = build_grid(1, 4.0, 32)
        A = assemble_diffusion(identity_q(g), g)
        f = bump_field(g, 1)
        dense = A.matrix.toarray()
        errs = []
        for tau in (0.2, 0.1, 0.05):
            cfg = SplitConfig(substep="crank_nicolson")
            out = diffusion_step(A, f, tau, cfg)
            ref = scipy.linalg.expm(tau * dense) @ f.values[:, 0]
            errs.append(np.linalg.norm(out.values[:, 0] - ref))
        order = math.log2(errs[1] / errs[2])
        assert 2.6 < order < 3.4

    def test_gaussian_widening_against_closed_form(self):
        R, n = 20.0, 800
        g = build_grid(1, R, n)
        A = assemble_diffusion(identity_q(g), g)
        sigma = 0.5
        x = g.axis_coords
        f = VectorField(g, np.exp(-(x**2) / (2 * sigma**2))[:, None].astype(complex))
        t = 1.0
        cfg = SplitConfig(substep="crank_nicolson", n_steps=200, t_final=t)
        out = f
        for _ in range(cfg.n_steps):
            out = diffusion_step(A, out, t / cfg.n_steps, cfg)
        # undo the -I shift and compare against the exact widened Gaussian
        ref = gaussian_heat_profile(x, t, sigma)
        err = lp_norm(
            VectorField(g, (math.exp(t) * out.values[:, 0] - ref)[:, None]), 2
        )
        assert err <= 1e-3

    def test_norm_never_increases(self):
        g = build_grid(1, 3.0, 48)
        A = assemble_diffusion(identity_q(g), g)
        rng = np.random.default_rng(4)
        f = VectorField(g, rng.standard_normal((48, 2)) + 1j * rng.standard_normal((48, 2)))
        for substep in ("backward_euler", "crank_nicolson"):
            cfg = SplitConfig(substep=substep)
            out = diffusion_step(A, f, 0.5, cfg)
            assert lp_norm(out, 2) <= lp_norm(f, 2) * (1 + 1e-12)


class TestTrotter:
    def test_decoupled_diag_matches_scalar_runs(self):
        g = build_grid(1, 6.0, 96)
        Q = identity_q(g)
        V = sample_field(make_rule("diag_V", 1, c=-1.0, m=2)[0], g, "potential")
        A = assemble_diffusion(Q, g)
        f = bump_field(g, 2)
        t = 0.4
        cfg = SplitConfig(scheme="lie", substep="backward_euler",
                          n_steps=80, t_final=t)
        traj = trotter_evolve(A, V, f, cfg)
        # scalar route: same substeps on each component, potential factor e^{-t}
        for k in range(2):
            comp0 = VectorField(g, f.values[:, k][:, None])
            scalar = comp0
            A1 = assemble_diffusion(Q, g)
            for _ in range(cfg.n_steps):
                scalar = diffusion_step(A1, scalar, t / cfg.n_steps, cfg)
            expected = math.exp(-t) * scalar.values[:, 0]
            err = np.linalg.norm(traj.final.values[:, k] - expected)
            assert err <= 1e-8 * max(1.0, np.linalg.norm(expected))

    def test_realness_preserved(self):
        g = build_grid(1, 4.0, 32)
        V = shift_potential(sample_field(make_rule("rotation_V", 1, r=1.5)[0], g, "potential"))
        A = assemble_diffusion(identity_q(g), g)
        f = VectorField(g, np.real(bump_field(g, 2).values).astype(complex))
        cfg = SplitConfig(scheme="strang", substep="crank_nicolson",
                          n_steps=20, t_final=0.5)
        out = trotter_evolve(A, V, f, cfg).final
        assert np.abs(out.values.imag).max() <= 1e-12

    def test_semigroup_property(self):
        g = build_grid(1, 4.0, 48)
        V = shift_potential(sample_field(make_rule("rotation_V", 1, r=1.5)[0], g, "potential"))
        A = assemble_diffusion(identity_q(g), g)
        f = bump_field(g, 2)
        mk = lambda t, n: SplitConfig(scheme="lie", substep="backward_euler",
                                      n_steps=n, t_final=t)
        once = trotter_evolve(A, V, f, mk(0.6, 60)).final
        first = trotter_evolve(A, V, f, mk(0.4, 40)).final
        second = trotter_evolve(A, V, first, mk(0.2, 20)).final
        assert lp_norm(second - once, 2) <= 1e-9 * lp_norm(once, 2) + 1e-12

    def test_all_p_norms_nonincreasing_backward_euler(self):
        g = build_grid(1, 4.0, 64)
        V = shift_potential(sample_field(make_rule("rotation_V", 1, r=1.5)[0], g, "potential"))
        A = assemble_diffusion(identity_q(g), g)
        rng = np.random.default_rng(8)
        f = VectorField(g, rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2)))
        cfg = SplitConfig(scheme="lie", substep="backward_euler",
                          n_steps=50, t_final=1.0)
        traj = trotter_evolve(A, V, f, cfg)
        for p, norms in traj.norm_log.items():
            assert np.all(np.diff(norms) <= 1e-8 * norms[:-1])

    def test_crank_nicolson_l2_nonincreasing(self):
        g = build_grid(1, 4.0, 64)
        V = shift_potential(sample_field(make_rule("rotation_V", 1, r=1.5)[0], g, "potential"))
        A = assemble_diffusion(identity_q(g), g)
        rng = np.random.default_rng(9)
        f = VectorField(g, rng.standard_normal((64, 2)) + 0j)
        cfg = SplitConfig(scheme="strang", substep="crank_nicolson",
                          n_steps=50, t_final=1.0)
        traj = trotter_evolve(A, V, f, cfg)
        norms = traj.norm_log[2]
        assert np.all(np.diff(norms) <= 1e-8 * norms[:-1])

    @pytest.mark.parametrize(
        "v_rule,v_params,do_shift",
        [
            ("rotation_V", {"r": 1.5}, True),
            ("degenerate_V", {}, False),
            ("coupled_V", {"a": -2.0, "b": 1.0, "c": 0.5}, False),
            ("upper_triangular_V", {}, False),
        ],
    )
    def test_strang_beats_lie(self, v_rule, v_params, do_shift):
        g = build_grid(1, 8.0, 64)
        V = sample_field(make_rule(v_rule, 1, **v_params)[0], g, "potential")
        if do_shift:
            V = shift_potential(V)
        A = assemble_diffusion(identity_q(g), g)
        L = A.on_components(2) + assemble_potential(V, 2)
        f = bump_field(g, 2)
        t = 0.5
        ref = VectorField(g, (scipy.linalg.expm(t * L.matrix.toarray()) @ f.values.ravel()).reshape(64, 2))
        errs = {}
        for scheme in ("lie", "strang"):
            cfg = SplitConfig(scheme=scheme, substep="crank_nicolson",
                              n_steps=32, t_final=t)
            out = trotter_evolve(A, V, f, cfg).final
            errs[scheme] = lp_norm(out - ref, 2)
        # ">= accuracy": ties happen when the factors commute (constant V)
        assert errs["strang"] <= errs["lie"] * (1 + 1e-6)

    def test_complex_potential_path(self):
        # B = Delta - 1 - i x runs through the same splitting code; the real
        # part of its numerical range is <= -1, so the 2-norm contracts
        g = build_grid(1, 10.0, 200)
        V = sample_field(make_rule("complex_linear_V", 1)[0], g, "potential")
        A = assemble_diffusion(identity_q(g), g)
        rng = np.random.default_rng(2)
        f = VectorField(g, rng.standard_normal((200, 1)) + 1j * rng.standard_normal((200, 1)))
        cfg = SplitConfig(scheme="lie", substep="backward_euler",
                          n_steps=40, t_final=0.5)
        traj = trotter_evolve(A, V, f, cfg, norm_ps=(2,))
        norms = traj.norm_log[2]
        assert np.all(np.diff(norms) <= 1e-10 * norms[:-1])
        assert norms[-1] <= math.exp(-0.5) * norms[0] * (1 + 1e-8)

    def test_snapshot_stride(self):
        g = build_grid(1, 2.0, 16)
        V = sample_field(make_rule("diag_V", 1, c=-1.0, m=2)[0], g, "potential")
        A = assemble_diffusion(identity_q(g), g)
        cfg = SplitConfig(n_steps=10, t_final=0.1)
        traj = trotter_evolve(A, V, bump_field(g, 2), cfg, snapshot_stride=2)
        assert traj.snapshot_times == [0.0] + [0.02 * k for k in range(1, 6)]
        assert len(traj.times) == 11


class TestLayoutGuards:
    def test_split_step_rejects_a_block_on_another_grid(self):
        g = build_grid(1, 1.0, 4)
        D = assemble_diffusion(identity_q(g), g)
        V = sample_field(make_rule("diag_V", 1, c=-1.0, m=2)[0], build_grid(1, 1.0, 5), "potential")
        with pytest.raises(ValueError, match="on V's grid"):
            split_step(D, V, 0.1, SplitConfig())

    def test_trotter_rejects_mismatched_layouts(self):
        g = build_grid(1, 2.0, 8)
        A = assemble_diffusion(identity_q(g), g)
        V = sample_field(make_rule("diag_V", 1, c=-1.0, m=2)[0], g, "potential")
        wrong = VectorField(g, np.ones((8, 3)))
        with pytest.raises(ValueError):
            trotter_evolve(A, V, wrong, SplitConfig(n_steps=2, t_final=0.1))


class TestScalarHeat:
    def test_eigenfunction_decay(self):
        R, n = 3.0, 50
        g = build_grid(1, R, n)
        Q = identity_q(g)
        x = g.axis_coords
        v = np.sin(math.pi * (x + R) / (2 * R))
        h = g.spacing
        lam = -4.0 / h**2 * math.sin(math.pi / (2 * (n + 1))) ** 2
        t = 0.5
        cfg = SplitConfig(substep="crank_nicolson", n_steps=400, t_final=t)
        out = heat_evolve(Q, VectorField(g, v[:, None].astype(complex)), t, cfg)
        np.testing.assert_allclose(
            out.values[:, 0].real, math.exp(lam * t) * v, atol=5e-6
        )

    def test_positivity_and_mass_decay(self):
        g = build_grid(1, 3.0, 80)
        Q = identity_q(g)
        rng = np.random.default_rng(3)
        w0 = VectorField(g, rng.random((80, 1)).astype(complex))
        cfg = SplitConfig(substep="backward_euler", n_steps=20, t_final=0.3)
        out = heat_evolve(Q, w0, 0.3, cfg)
        assert out.values.real.min() >= -1e-12
        assert np.sum(out.values.real) * g.cell_measure <= np.sum(w0.values.real) * g.cell_measure


def random_real_potential(grid, m, seed):
    """Per-cell real m x m potentials with full coupling."""
    rng = np.random.default_rng(seed)
    return MatrixField(grid, "potential", rng.uniform(-1.0, 0.5, (grid.n_cells, m, m)))


def random_parts(grid, m, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((2, grid.n_cells, m))


class TestRealPath:
    """Real data under a real potential is stepped in float64: m LU columns
    instead of 2m, and the result must equal the complex path's by linearity."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("substep", ["backward_euler", "crank_nicolson"])
    @pytest.mark.parametrize("scheme", ["lie", "strang"])
    def test_complex_run_is_sum_of_real_runs(self, scheme, substep, dim, m):
        g = build_grid(dim, 3.0, 30 if dim == 1 else 9)
        A = assemble_diffusion(identity_q(g), g)
        V = random_real_potential(g, m, seed=m)
        re, im = random_parts(g, m, seed=10 + m)
        cfg = SplitConfig(scheme=scheme, substep=substep, n_steps=6, t_final=0.3)
        whole = trotter_evolve(A, V, VectorField(g, re + 1j * im), cfg).final.values
        parts = [trotter_evolve(A, V, VectorField(g, x), cfg).final.values for x in (re, im)]
        combined = parts[0] + 1j * parts[1]
        assert np.linalg.norm(whole - combined) <= 1e-13 * np.linalg.norm(whole)

    def test_real_data_under_complex_potential_stays_complex(self):
        g = build_grid(1, 10.0, 60)
        V = sample_field(make_rule("complex_linear_V", 1)[0], g, "potential")
        A = assemble_diffusion(identity_q(g), g)
        f = bump_field(g, 1)
        assert f.is_real
        out = trotter_evolve(A, V, f, SplitConfig(n_steps=10, t_final=0.5)).final
        assert np.abs(out.values.imag).max() > 1e-3

    def test_snapshots_complex_with_exact_zero_imaginary_part(self):
        g = build_grid(2, 3.0, 8)
        V = random_real_potential(g, 2, seed=4)
        A = assemble_diffusion(identity_q(g), g)
        f = VectorField(g, random_parts(g, 2, seed=5)[0])
        traj = trotter_evolve(A, V, f, SplitConfig(n_steps=6, t_final=0.3), snapshot_stride=2)
        assert len(traj.snapshots) == 4
        for snap in traj.snapshots:
            assert snap.values.dtype == np.complex128
            assert np.all(snap.values.imag == 0.0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_solve_columns(self, monkeypatch, m):
        seen = solve_widths(monkeypatch)
        g = build_grid(1, 3.0, 20)
        A = assemble_diffusion(identity_q(g), g)
        V = random_real_potential(g, m, seed=6)
        re, im = random_parts(g, m, seed=7)
        cfg = SplitConfig(n_steps=3, t_final=0.1)
        trotter_evolve(A, V, VectorField(g, re), cfg)
        assert seen == [m] * 3
        seen.clear()
        trotter_evolve(A, V, VectorField(g, re + 1j * im), cfg)
        assert seen == [2 * m] * 3

    @pytest.mark.parametrize("substep", ["backward_euler", "crank_nicolson"])
    def test_scalar_heat_real_matches_complex(self, substep):
        g = build_grid(2, 3.0, 10)
        Q = identity_q(g)
        re, im = random_parts(g, 1, seed=8)
        cfg = SplitConfig(substep=substep, n_steps=5)
        whole = heat_evolve(Q, VectorField(g, re + 1j * im), 0.2, cfg).values
        parts = [heat_evolve(Q, VectorField(g, x), 0.2, cfg).values for x in (re, im)]
        assert np.all(parts[0].imag == 0.0) and np.all(parts[1].imag == 0.0)
        combined = parts[0] + 1j * parts[1]
        assert np.linalg.norm(whole - combined) <= 1e-13 * np.linalg.norm(whole)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_potential_apply_matches_complex_einsum(self, m):
        # the multiply-add sums over j in order, as complex einsum does, so a
        # real run reproduces the complex run's real part bit for bit
        g = build_grid(2, 3.0, 12)
        V = random_real_potential(g, m, seed=9)
        stepper = _PotentialStepper(V, 0.2)
        expm = matrix_exp(0.2 * V.values).astype(complex)
        re, im = random_parts(g, m, seed=10)
        for vals in (re, re + 1j * im):
            ref = np.einsum("cij,cj->ci", expm, vals.astype(complex))
            out = stepper.apply(block(vals))[0].T
            assert out.dtype == vals.dtype
            assert out.tobytes() == (ref if np.iscomplexobj(vals) else ref.real.copy()).tobytes()


class CountingLU:
    """Stands in for a stepper's SuperLU factor and records each solve's width."""

    def __init__(self, lu):
        self.lu, self.widths = lu, []

    def solve(self, rhs):
        self.widths.append(rhs.shape[1])
        return self.lu.solve(rhs)


def solve_widths(monkeypatch) -> list:
    """A list that records the width of every solve made on the factor of
    each step built from now on."""
    seen = []
    sparse_lu = vschro.evolve.sparse_lu

    def counting(matrix):
        lu = CountingLU(sparse_lu(matrix))
        lu.widths = seen
        return lu

    monkeypatch.setattr(vschro.evolve, "sparse_lu", counting)
    return seen


class TestZeroColumns:
    """A right-hand-side column that is exactly zero is not solved; the
    columns that are solved equal the full solve's bit for bit."""

    @pytest.mark.parametrize("zero_corner", [False, True], ids=["dense", "zero_corner"])
    @pytest.mark.parametrize("substep", ["backward_euler", "crank_nicolson"])
    @pytest.mark.parametrize("data, dead", [("real", []), ("real", [1]), ("complex", [1, 2])])
    def test_live_columns_match_full_solve(self, substep, data, dead, zero_corner):
        g = build_grid(2, 3.0, 9)
        D = assemble_diffusion(identity_q(g), g).matrix
        stepper = _DiffusionStepper(D, 0.07, SplitConfig(substep=substep))
        re, im = random_parts(g, 3, seed=21)
        vals = re if data == "real" else re + 1j * im
        cols = vals.view(np.float64)  # complex: re0, im0, re1, im1, re2, im2
        cols[:, dead] = 0.0
        if zero_corner:  # row 0 no longer proves the columns live
            cols[0, 0] = 0.0
        live = [j for j in range(cols.shape[1]) if j not in dead]
        rhs = cols if stepper.rhs_mat is None else stepper.rhs_mat @ cols
        full = stepper.lu.solve(rhs)
        stepper.lu = CountingLU(stepper.lu)
        out = np.ascontiguousarray(stepper.apply(block(vals))[0].T).view(np.float64)
        assert stepper.lu.widths == [len(live)]
        np.testing.assert_array_equal(out[:, live], full[:, live])
        assert np.all(out[:, dead] == 0.0)

        zero = stepper.apply(block(np.zeros_like(vals)))
        assert stepper.lu.widths == [len(live)]
        assert zero.dtype == vals.dtype and not zero.any()

    @pytest.mark.parametrize("data", ["real", "complex"])
    def test_checked_solve_returns_the_factors_columns_as_rows(self, data):
        # SuperLU solves the rows' transpose and returns Fortran-ordered
        # columns; the checked solve hands back their transpose: the same
        # bits as C-contiguous rows, in the rows' dtype and shape
        g = build_grid(2, 3.0, 9)
        D = assemble_diffusion(identity_q(g), g).matrix
        lhs = (sp.identity(g.n_cells, format="csr") - 0.07 * D).tocsc()
        lu = sparse_lu(lhs)
        re, im = random_parts(g, 3, seed=8)
        b = re if data == "real" else re + 1j * im
        ref = lu.solve(b.view(np.float64))  # complex b on the real factor: 2m real columns
        x = checked_solve(lu, lhs, matrix_norm(lhs), np.ascontiguousarray(b.T), 1)
        assert x.flags.c_contiguous and x.dtype == b.dtype and x.shape == b.T.shape
        assert np.ascontiguousarray(x.T).view(np.float64).tobytes() == np.ascontiguousarray(ref).tobytes()

    def test_residual_miss_raises_with_zero_column(self, corrupt_factors):
        g = build_grid(1, 2.0, 16)
        A = assemble_diffusion(identity_q(g), g)
        vals = np.random.default_rng(5).standard_normal((16, 2))
        vals[:, 1] = 0.0
        widths = corrupt_factors()
        with pytest.raises(SolverError, match="residual"):
            diffusion_step(A, VectorField(g, vals), 0.1, SplitConfig())
        assert widths == [1]  # the corrupted column is the live one


def per_cell_stepper(V, tau):
    """A _PotentialStepper whose cache is one matrix_exp batch over every
    cell, without V.distinct."""
    stepper = object.__new__(_PotentialStepper)
    stepper.expm = np.ascontiguousarray(matrix_exp(tau * V.values).transpose(2, 1, 0))
    return stepper


class TestConstantPotential:
    """Each distinct cell matrix is exponentiated once and gathered to its
    cells, with the same result as the all-cells batch, bit for bit; a
    constant V is one matrix."""

    @staticmethod
    def record_batches(monkeypatch):
        batches = []

        def recording(M):
            batches.append(len(M))
            return matrix_exp(M)

        monkeypatch.setattr("vschro.evolve.matrix_exp", recording)
        return batches

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_per_cell_batch(self, monkeypatch, m, dtype):
        g = build_grid(2, 3.0, 12)
        rng = np.random.default_rng(30 + m)
        M = rng.uniform(-1.0, 0.5, (m, m)).astype(dtype)
        if dtype is complex:
            M += 1j * rng.uniform(-0.5, 0.5, (m, m))
        V = MatrixField(g, "potential", np.broadcast_to(M, (g.n_cells, m, m)))
        assert V.is_constant
        batches = self.record_batches(monkeypatch)
        once = _PotentialStepper(V, 0.3)
        assert batches == [1]
        per_cell = per_cell_stepper(V, 0.3)
        assert once.expm.flags.c_contiguous and once.expm.tobytes() == per_cell.expm.tobytes()
        re, im = random_parts(g, m, seed=40 + m)
        for vals in (re, re + 1j * im):
            np.testing.assert_array_equal(once.apply(block(vals)), per_cell.apply(block(vals)))

    def test_nonconstant_potential_exponentiates_each_distinct_matrix_once(self, monkeypatch):
        g = build_grid(1, 6.0, 40)
        V = sample_field(make_rule("rotation_V", 1, r=1.5)[0], g, "potential")
        assert not V.is_constant
        batches = self.record_batches(monkeypatch)
        _PotentialStepper(V, 0.2)
        assert batches == [len(V.distinct[0])] and len(V.distinct[0]) < g.n_cells

    def test_repeated_field_matches_per_cell_batch(self, repeated_field):
        V, _ = repeated_field
        stepper, per_cell = _PotentialStepper(V, 0.3), per_cell_stepper(V, 0.3)
        assert stepper.expm.flags.c_contiguous
        assert stepper.expm.tobytes() == per_cell.expm.tobytes()
        re, im = random_parts(V.grid, V.rows, seed=41)
        vals = block(re + 1j * im)
        assert stepper.apply(vals).tobytes() == per_cell.apply(vals).tobytes()


def same_trajectory(a, b):
    assert np.array_equal(a.times, b.times) and a.snapshot_times == b.snapshot_times
    assert list(a.norm_log) == list(b.norm_log)
    for p in a.norm_log:
        assert np.array_equal(a.norm_log[p], b.norm_log[p])
    for x, y in zip(a.snapshots, b.snapshots, strict=True):
        assert x.values.tobytes() == y.values.tobytes()


class TestSplitStep:
    """A step built once and run on many fields, or to several horizons at
    one step size, gives what a fresh trotter_evolve gives for each."""

    @pytest.mark.parametrize("scheme", ["lie", "strang"])
    @pytest.mark.parametrize("substep", ["backward_euler", "crank_nicolson"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_reused_step_matches_fresh_runs(self, dim, substep, scheme):
        g = build_grid(dim, 3.0, 24 if dim == 1 else 10)
        A = assemble_diffusion(identity_q(g), g)
        V = random_real_potential(g, 2, seed=50)
        cfg = SplitConfig(scheme=scheme, substep=substep, n_steps=6, t_final=0.3)
        step = split_step(A, V, cfg.t_final / cfg.n_steps, cfg)
        for seed in (51, 52):
            re, im = random_parts(g, 2, seed)
            for vals in (re, re + 1j * im):
                f = VectorField(g, vals)
                same_trajectory(step.run(f, 6, snapshot_stride=2),
                                trotter_evolve(A, V, f, cfg, snapshot_stride=2))

    def test_one_step_size_serves_several_horizons(self):
        g = build_grid(1, 3.0, 30)
        A = assemble_diffusion(identity_q(g), g)
        V = sample_field(make_rule("rotation_V", 1, r=1.5)[0], g, "potential")
        f = bump_field(g, 2)
        cfg = SplitConfig(n_steps=20, t_final=0.1)
        step = split_step(A, V, 0.1 / 20, cfg)
        for t, n in ((0.1, 20), (0.5, 100), (0.25, 50)):
            assert t / n == step.tau
            same_trajectory(step.run(f, n, norm_ps=(2, math.inf)),
                            trotter_evolve(A, V, f, SplitConfig(n_steps=n, t_final=t),
                                           norm_ps=(2, math.inf)))

    def test_complex_potential_steps_in_complex(self):
        g = build_grid(1, 3.0, 30)
        A = assemble_diffusion(identity_q(g), g)
        V = sample_field(make_rule("complex_linear_V", 1)[0], g, "potential")
        step = split_step(A, V, 0.01, SplitConfig())
        assert not step.real_coefficients
        f = VectorField(g, np.exp(-g.axis_coords**2)[:, None])
        out = step.run(f, 10).final
        assert np.any(out.values.imag != 0.0)
        same_trajectory(step.run(f, 10), trotter_evolve(A, V, f, SplitConfig(n_steps=10, t_final=0.1)))

    @pytest.mark.parametrize("substep", ["backward_euler", "crank_nicolson"])
    def test_reused_heat_step_matches_fresh_runs(self, substep):
        g = build_grid(2, 3.0, 10)
        Q = identity_q(g)
        cfg = SplitConfig(substep=substep, n_steps=8)
        step = heat_step(Q, 0.4 / 8, cfg)
        re, im = random_parts(g, 1, seed=53)
        for vals in (re, re + 1j * im, np.abs(re)):
            w = VectorField(g, vals)
            out = step.run(w, 8, norm_ps=()).final
            assert out.values.tobytes() == heat_evolve(Q, w, 0.4, cfg).values.tobytes()

    def test_norm_log_matches_lp_norm_of_snapshots(self):
        g = build_grid(2, 3.0, 10)
        A = assemble_diffusion(identity_q(g), g)
        V = random_real_potential(g, 2, seed=54)
        re, im = random_parts(g, 2, seed=55)
        for vals in (re, re + 1j * im):
            traj = trotter_evolve(A, V, VectorField(g, vals), SplitConfig(n_steps=4, t_final=0.2),
                                  snapshot_stride=1)
            for p, log in traj.norm_log.items():
                assert log.tolist() == [lp_norm(s, p) for s in traj.snapshots]

    def test_no_norms_logged_when_none_asked(self):
        g = build_grid(1, 3.0, 20)
        A = assemble_diffusion(identity_q(g), g)
        V = random_real_potential(g, 2, seed=56)
        traj = split_step(A, V, 0.1, SplitConfig()).run(bump_field(g, 2), 3, norm_ps=())
        assert traj.norm_log == {} and len(traj.times) == 4

    def test_layout_guards(self):
        g = build_grid(1, 2.0, 8)
        A = assemble_diffusion(identity_q(g), g)
        V = sample_field(make_rule("diag_V", 1, c=-1.0, m=2)[0], g, "potential")
        with pytest.raises(ValueError, match="scalar"):
            split_step(A.on_components(2), V, 0.1, SplitConfig())
        step = split_step(A, V, 0.1, SplitConfig())
        with pytest.raises(ValueError, match="grid and components"):
            step.run(VectorField(g, np.ones((8, 3))), 2)
        with pytest.raises(ValueError, match="grid and components"):
            step.run(VectorField(build_grid(1, 2.0, 9), np.ones((9, 2))), 2)
        with pytest.raises(ValueError, match="n_steps"):
            step.run(VectorField(g, np.ones((8, 2))), 0)


def reference_norms(values, measure):
    """DEFAULT_NORM_PS of a field from cell amplitudes summed as numpy sums
    the rows of a C-ordered (n_cells, m) array (in component order, m < 8)."""
    amp = np.sqrt(np.sum(np.abs(values) ** 2, axis=1))
    return [_amplitude_lp_norm(amp, p, measure) for p in DEFAULT_NORM_PS]


class TestBlocks:
    """run_many steps consecutive fields as one component-major block; each
    field's trajectory equals its run alone, bit for bit on 1D grids and on
    these small 2D ones, to a few ulps on larger 2D grids."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        dim=st.integers(min_value=1, max_value=2),
        m=st.integers(min_value=1, max_value=3),
        data=st.sampled_from(["real", "complex", "mixed"]),
        complex_V=st.booleans(),
        scheme=st.sampled_from(["lie", "strang"]),
        substep=st.sampled_from(["backward_euler", "crank_nicolson"]),
        n_fields=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_block_matches_one_field_runs(self, dim, m, data, complex_V, scheme, substep,
                                          n_fields, seed):
        g = build_grid(dim, 3.0, 9 if dim == 1 else 4)
        rng = np.random.default_rng(seed)
        V = rng.uniform(-1.0, 0.5, (g.n_cells, m, m))
        if complex_V:
            V = V + 1j * rng.uniform(-0.5, 0.5, V.shape)
        A = assemble_diffusion(identity_q(g), g)
        step = split_step(A, MatrixField(g, "potential", V), 0.05,
                          SplitConfig(scheme=scheme, substep=substep))
        fields = []
        for i in range(n_fields):
            vals = rng.standard_normal((g.n_cells, m))
            if data == "complex" or (data == "mixed" and i % 2):
                vals = vals + 1j * rng.standard_normal(vals.shape)
            vals[:, i % m] *= i % 2  # a zero column in every other field
            fields.append(VectorField(g, vals))
        block = list(step.run_many(iter(fields), 3, snapshot_stride=1))
        assert len(block) == n_fields
        for f, traj in zip(fields, block):
            same_trajectory(traj, step.run(f, 3, snapshot_stride=1))
            for k, snap in enumerate(traj.snapshots):
                assert [traj.norm_log[p][k] for p in DEFAULT_NORM_PS] == reference_norms(
                    snap.values, g.cell_measure)
            assert all(s.values.flags.c_contiguous for s in traj.snapshots)

    def test_blocks_fill_the_budget_and_split_by_dtype(self, monkeypatch):
        seen = solve_widths(monkeypatch)
        g = build_grid(1, 10.0, 2000)
        step = split_step(assemble_diffusion(identity_q(g), g),
                          sample_field(make_rule("diag_V", 1, c=-1.0, m=2)[0], g, "potential"),
                          0.01, SplitConfig())
        assert vschro.evolve._BLOCK_COLUMNS == 8  # 4 real or 2 complex m = 2 fields
        re, im = random_parts(g, 2, seed=60)
        real, cplx = VectorField(g, np.abs(re) + 1.0), VectorField(g, re + 1j * im)
        list(step.run_many([real] * 19 + [cplx] * 5 + [real], 1, norm_ps=()))
        # real blocks of 4, 4, 4, 4 and 3 fields; the complex fields (4
        # columns each) in blocks of 2, 2 and 1; the last real field alone
        assert seen == [8, 8, 8, 8, 6, 8, 8, 4, 2]

    def test_four_96x96_fields_are_one_eight_column_solve(self, monkeypatch):
        # positivity's forward branch on the benchmark's 2D grid: the four
        # real m = 2 fields reach the factor together, once per step
        seen = solve_widths(monkeypatch)
        problem = build_problem(2, 4.0, 96, 2, v_rule="coupled_V",
                                v_params={"a": -2.0, "b": 0.5, "c": 0.3})
        result = run_positivity_check(problem, n_random=4)
        assert result.passed and seen == [8] * 10

    def test_fields_are_drawn_one_block_at_a_time(self):
        g = build_grid(1, 10.0, 2000)
        step = heat_step(identity_q(g), 0.01, SplitConfig())
        drawn = []

        def fields():
            for i in range(40):
                drawn.append(i)
                yield VectorField(g, np.full((g.n_cells, 1), 1.0 + i))

        runs = step.run_many(fields(), 2, norm_ps=())
        next(runs)
        # a full block, one column per real scalar field, is stepped before
        # the next is drawn
        assert len(drawn) == vschro.evolve._BLOCK_COLUMNS == 8

    def test_2d_block_matches_one_field_runs_to_a_few_ulps(self):
        # a 64^2 factor has supernodes of several columns, which SuperLU may
        # sum in another order for a block's 8 columns than for one field's 2
        # (here up to 2 ulps of a field's max); 1D grids stay bit-identical
        problem = build_problem(2, 3.0, 64, 2, v_rule="coupled_V",
                                v_params={"a": -2.0, "b": 0.5, "c": 0.3})
        step = split_step(problem.diffusion, problem.V, 0.01, SplitConfig())
        rng = np.random.default_rng(0)
        fields = [VectorField(problem.grid, rng.random((problem.grid.n_cells, 2)))
                  for _ in range(6)]
        for f, traj in zip(fields, step.run_many(fields, 10, norm_ps=()), strict=True):
            alone = step.run(f, 10, norm_ps=()).final.values
            ulp = np.spacing(np.abs(alone).max())
            assert np.abs(traj.final.values - alone).max() <= 8 * ulp

    def test_each_field_keeps_its_own_residual_bound(self, corrupt_factors):
        # an error in the last column far below a loud field's bound fails
        # the quiet field's own bound: the block's fields are not judged together
        g = build_grid(1, 3.0, 40)
        corrupt_factors(by=1e-9)
        step = heat_step(identity_q(g), 0.01, SplitConfig())
        loud, quiet = VectorField(g, np.full((40, 1), 1e6)), VectorField(g, np.full((40, 1), 1.0))
        with pytest.raises(SolverError, match="residual"):
            list(step.run_many([loud, quiet], 1, norm_ps=()))
        list(step.run_many([quiet, loud], 1, norm_ps=()))


class TestScalarBlock:
    """The splitting path holds and factors the scalar diffusion block D as
    it is: no kron(D, I_m) is formed when a step is built and run."""

    def test_split_step_on_a_2d_problem_forms_no_kron(self, monkeypatch):
        calls = []
        kron = sp.kron

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return kron(*args, **kwargs)

        monkeypatch.setattr(sp, "kron", counting)
        problem = build_problem(2, 3.0, 12, 2, v_rule="rotation_V", v_params={"r": 1.5},
                                shift="auto")
        n = problem.grid.n_cells
        step = split_step(problem.diffusion, problem.V, 0.01, SplitConfig())
        step.run(VectorField(problem.grid, random_parts(problem.grid, 2, seed=59)[0]), 3)
        assert problem.diffusion.matrix.shape == (n, n)
        assert "generator" not in problem.__dict__
        assert calls == []
        assert problem.generator.matrix.shape == (2 * n, 2 * n) and len(calls) == 1

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_components_step_alike(self, m):
        # each component column of a decoupled field evolves as the m = 1 run
        g = build_grid(2, 3.0, 9)
        D = assemble_diffusion(identity_q(g), g)
        cfg = SplitConfig(n_steps=4, t_final=0.2)
        V = sample_field(make_rule("diag_V", 2, c=-1.0, m=m)[0], g, "potential")
        V1 = sample_field(make_rule("diag_V", 2, c=-1.0, m=1)[0], g, "potential")
        vals = random_parts(g, m, seed=60)[0]
        out = trotter_evolve(D, V, VectorField(g, vals), cfg).final.values
        for k in range(m):
            one = trotter_evolve(D, V1, VectorField(g, vals[:, k:k + 1]), cfg).final.values
            np.testing.assert_allclose(out[:, k], one[:, 0], rtol=1e-13, atol=1e-15)


# The structural claims hold to rounding: each is checked to 8 machine
# epsilons per step, relative to the data's scale.
_ROUNDING = 8 * np.finfo(float).eps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    dim=st.integers(min_value=1, max_value=2),
    n=st.integers(min_value=3, max_value=12),
    m=st.integers(min_value=1, max_value=3),
    tau=st.floats(min_value=1e-3, max_value=0.5),
    n_steps=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_backward_euler_split_is_contractive_positive_and_dominated(dim, n, m, tau, n_steps, seed):
    """Lie / backward-Euler steps under diagonal Q and a coupling with
    off-diagonal entries >= 0 and a dominant negative diagonal (a
    nonpositive Hermitian part): every p-norm is nonincreasing, nonnegative
    data stays nonnegative, and |S(t) f|^2 stays below the heat flow of
    |f|^2.  Exact zeros in V and f exercise the unsolved zero columns."""
    g = build_grid(dim, 2.0, n)
    rng = np.random.default_rng(seed)
    q = np.zeros((g.n_cells, dim, dim))
    for a in range(dim):
        q[:, a, a] = rng.uniform(0.2, 3.0, g.n_cells)
    Q = MatrixField(g, "diffusion", q)
    v = rng.uniform(0.0, 2.0, (g.n_cells, m, m)) * (rng.random((g.n_cells, m, m)) < 0.7)
    idx = np.arange(m)
    v[:, idx, idx] = 0.0
    v[:, idx, idx] = -0.5 * (v.sum(axis=1) + v.sum(axis=2)) - rng.uniform(0.0, 1.0, (g.n_cells, m))
    V = MatrixField(g, "potential", v)
    f = rng.standard_normal((g.n_cells, m)) + 1j * rng.standard_normal((g.n_cells, m))
    f[:, rng.random(m) < 0.3] = 0.0
    cfg = SplitConfig(substep="backward_euler")
    step = split_step(assemble_diffusion(Q, g), V, tau, cfg)
    slack = _ROUNDING * n_steps

    traj = step.run(VectorField(g, f), n_steps)
    for p, norms in traj.norm_log.items():
        assert np.all(np.diff(norms) <= slack * norms[0]), p

    positive = step.run(VectorField(g, np.abs(f)), n_steps, norm_ps=()).final.values
    assert positive.real.min() >= -slack * np.abs(f).max()

    sq = (np.abs(f) ** 2).sum(axis=1)
    w = heat_step(Q, tau, cfg).run(VectorField(g, sq), n_steps, norm_ps=()).final.values[:, 0].real
    assert np.max((np.abs(traj.final.values) ** 2).sum(axis=1) - w) <= slack * sq.max()
