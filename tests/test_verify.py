import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad
from scipy.special import exp1, expi

from vschro.evolve import SplitConfig, trotter_evolve
from vschro.fields import MatrixField, make_rule, sample_field
from vschro.mesh import VectorField, build_grid, lp_norm
from vschro.operators import assemble_diffusion, assemble_potential
from vschro.problems import build_problem
from vschro.spectral import KernelEstimate
from vschro.verify import (
    _bump,
    expm_apply,
    gaussian_heat_profile,
    heat_kernel_sup,
    run_consistency_check,
    run_contraction_check,
    run_domination_check,
    run_nongeneration_demo,
    run_positivity_check,
    run_shift_invariance_check,
    run_ultracontractivity_fit,
    u2_closed_form,
    ultracontractive_sweep,
)


def dense_expm_apply(L, t, f):
    """Reference e^{tL} f through the dense matrix exponential (small grids only)."""
    E = scipy.linalg.expm(t * L.matrix.toarray())
    return VectorField(f.grid, (E @ f.values.ravel()).reshape(f.grid.n_cells, L.m))


def quad_u2(x, lam):
    """u2 by adaptive quadrature of its two integrals; about 5e-9 relative."""
    a = math.sqrt(lam)
    if x < 1.0:
        return 0.0

    def tail(xx):
        return quad(lambda s: math.exp(-a * s) / (xx + s), 0.0, np.inf)[0]

    body = 0.0
    if x > 1.0:
        body = quad(lambda tt: math.exp(-a * (x - tt)) / tt, 1.0, x,
                    points=[max(1.0, x - 40.0 / a)], limit=200)[0]
    c_term = -tail(1.0) / (2.0 * a) * math.exp(-a * (x - 1.0))
    return tail(x) / (2.0 * a) + body / (2.0 * a) + c_term


def trotter_input(grid, m):
    """The bump input run_trotter_order_check evolves."""
    vals = np.zeros((grid.n_cells, m), dtype=complex)
    vals[:, 0] = _bump(grid, 0.0, 1.0)
    if m > 1:
        vals[:, 1] = 0.5 * _bump(grid, 0.0, 1.0)
    return VectorField(grid, vals)


def rotation_r15():
    return build_problem(
        1, 8.0, 200, 2, v_rule="rotation_V", v_params={"r": 1.5}, shift="auto", alpha=0.45
    )


def rotation_2d(n):
    return build_problem(2, 6.0, n, 2, v_rule="rotation_V", v_params={"r": 1.5}, shift="auto")


class TestOracles:
    def test_dense_expm_against_per_cell_route(self):
        # for a pure potential operator both the dense and the sparse
        # exponential must agree with the cell-local exponential
        from vschro.fields import matrix_exp

        g = build_grid(1, 2.0, 12)
        V = sample_field(make_rule("rotation_V", 1, r=1.5)[0], g, "potential")
        Vop = assemble_potential(V, 2)
        rng = np.random.default_rng(0)
        f = VectorField(g, rng.standard_normal((12, 2)) + 0j)
        t = 0.7
        cellwise = np.einsum("cij,cj->ci", matrix_exp(t * V.values), f.values)
        np.testing.assert_allclose(dense_expm_apply(Vop, t, f).values, cellwise, atol=1e-12)
        np.testing.assert_allclose(expm_apply(Vop, t, f).values, cellwise, atol=1e-12)

    @pytest.mark.parametrize("make_problem", [rotation_r15, lambda: rotation_2d(24)],
                             ids=["rotation_r15", "2d_24"])
    def test_sparse_oracle_matches_dense(self, make_problem):
        p = make_problem()
        f = trotter_input(p.grid, p.m)
        ref = dense_expm_apply(p.generator, 0.5, f)
        err = lp_norm(expm_apply(p.generator, 0.5, f) - ref, 2) / lp_norm(ref, 2)
        assert err <= 1e-12

    def test_sparse_oracle_ignores_global_seed(self):
        # expm_multiply's 1-norm estimator draws from numpy's global RNG
        p = rotation_r15()
        f = trotter_input(p.grid, p.m)
        state = np.random.get_state()
        try:
            outs = []
            for seed in (0, 12345):
                np.random.seed(seed)
                outs.append(expm_apply(p.generator, 0.5, f).values)
        finally:
            np.random.set_state(state)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_sparse_oracle_above_old_dense_cap(self):
        # 6000 unknowns, past the 5000 the dense oracle allowed: the semigroup
        # property e^{2tA} f = e^{tA} e^{tA} f holds to rounding
        g = build_grid(1, 10.0, 2000)
        Q = sample_field(make_rule("identity_Q", 1)[0], g, "diffusion")
        A = assemble_diffusion(Q, g, 3)
        f = trotter_input(g, 3)
        once = expm_apply(A, 2e-3, f)
        twice = expm_apply(A, 1e-3, expm_apply(A, 1e-3, f))
        assert lp_norm(once - twice, 2) <= 1e-12 * lp_norm(once, 2)

    def test_gaussian_profile_solves_heat_equation(self):
        x = np.linspace(-3, 3, 401)
        dx = x[1] - x[0]
        t, dt, sigma = 0.3, 1e-5, 0.8
        u0 = gaussian_heat_profile(x, t - dt, sigma)
        u1 = gaussian_heat_profile(x, t, sigma)
        u2 = gaussian_heat_profile(x, t + dt, sigma)
        dudt = (u2 - u0) / (2 * dt)
        lap = (u1[2:] - 2 * u1[1:-1] + u1[:-2]) / dx**2
        assert np.abs(dudt[1:-1] - lap).max() < 1e-4

    def test_heat_kernel_sup_values(self):
        assert heat_kernel_sup(0.25, 1) == pytest.approx(math.pi**-0.5, rel=1e-12)
        assert heat_kernel_sup(0.25, 2) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_u2_boundary_matching(self):
        for lam in (1.0, 4.0):
            assert abs(u2_closed_form(1.0 + 1e-9, lam)) < 1e-6
            assert u2_closed_form(0.5, lam) == 0.0

    def test_u2_against_special_functions(self):
        # exponential-integral closed form at moderate x (no overflow there)
        lam = 1.0
        a = math.sqrt(lam)
        for x in (2.0, 5.0, 8.0):
            tail = math.exp(a * x) * exp1(a * x)
            body = math.exp(-a * x) * (expi(a * x) - expi(a))
            c_term = -math.exp(a) * exp1(a) * math.exp(-a * (x - 1.0))
            ref = (tail + body + c_term) / (2.0 * a)
            assert u2_closed_form(x, lam) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 4.0])
    def test_u2_against_quadrature(self, lam):
        # x spans both sides of the switch to the asymptotic series at sqrt(lam) x = 40
        for x in (1.5, 3.0, 10.0, 37.36979166666667, 39.9, 40.1, 80.0, 300.0, 1000.0):
            assert u2_closed_form(x, lam) == pytest.approx(quad_u2(x, lam), rel=1e-8)

    @pytest.mark.parametrize("lam, x, ref", [
        (1.0, 2.0, 0.27797554291974697),
        (1.0, 39.99, 0.025037764246175967),
        (1.0, 40.01, 0.025025216768321219),
        (0.5, 37.36979166666667, 0.053675216999373941),
        (4.0, 10.0, 0.025129081265285842),
        (0.25, 160.0, 0.025007827217711494),
        (1.0, 1000.0, 0.0010000020000240007),
    ])
    def test_u2_mpmath_values(self, lam, x, ref):
        # references from mpmath at 40 digits
        assert u2_closed_form(x, lam) == pytest.approx(ref, rel=1e-13)

    def test_u2_anchor_both_lambdas(self):
        assert 1000.0 * u2_closed_form(1000.0, 1.0) == pytest.approx(1.0, abs=0.01)
        assert 1000.0 * u2_closed_form(1000.0, 4.0) == pytest.approx(0.25, rel=0.01)


def small_problem(v_rule="diag_V", v_params=None, shift="none", n=64, R=6.0, alpha=0.0):
    return build_problem(
        1, R, n, 2, v_rule=v_rule, v_params=v_params or {}, shift=shift, alpha=alpha
    )


class TestContraction:
    def test_zero_field_trivially_passes(self):
        p = small_problem()
        f = VectorField(p.grid, np.zeros((p.grid.n_cells, 2)))
        cfg = SplitConfig(scheme="lie", diffusion_substep="backward_euler",
                          n_steps=5, t_final=0.1)
        res = run_contraction_check(trotter_evolve(p.diffusion, p.V, f, cfg))
        assert res.passed

    def test_negative_control_fails(self):
        # sign-flipped diag(-2,-2): growth beats the -I shift, check must fail
        p = small_problem(v_rule="diag_V", v_params={"c": 2.0})
        x = p.grid.axis_coords
        f = VectorField(p.grid, np.column_stack([np.exp(-x**2)] * 2).astype(complex))
        cfg = SplitConfig(scheme="lie", diffusion_substep="backward_euler",
                          n_steps=50, t_final=1.0)
        res = run_contraction_check(trotter_evolve(p.diffusion, p.V, f, cfg))
        assert not res.passed
        assert res.measured["max_relative_increase"] > 1e-3


class TestPositivity:
    def test_dense_exponential_oracle_entrywise(self):
        # e^{tL} is entrywise nonnegative for the nonneg-coupling potential
        p = small_problem(v_rule="coupled_V", v_params={"a": -2.0, "b": 1.0, "c": 0.5}, n=24)
        E = scipy.linalg.expm(0.2 * p.generator.matrix.toarray())
        assert E.min() >= -1e-12

    def test_diagonal_potential_positive(self):
        p = small_problem()
        res = run_positivity_check(p, n_random=10)
        assert res.passed
        assert res.measured["min_value"] >= -1e-10

    def test_converse_detects_negative_coupling(self):
        p = small_problem(v_rule="coupled_V", v_params={"a": -2.0, "b": -1.0, "c": -1.0})
        res = run_positivity_check(p)
        assert res.passed
        assert res.measured["component_dip"] < -1e-6

    def test_inconclusive_when_coupling_vanishes(self):
        p = small_problem(v_rule="coupled_V", v_params={"a": -2.0, "b": -1e-9, "c": 0.0})
        with pytest.raises(ValueError):
            run_positivity_check(p)


class TestDomination:
    def test_zero_field_trivial(self):
        p = small_problem()
        res = run_domination_check(p, ts=(0.1,), width=1.0)
        assert res.passed

    def test_diagonal_scalar_comparison(self):
        p = small_problem(n=200, R=8.0)
        res = run_domination_check(p, ts=(0.2, 0.6))
        assert res.passed
        for key, val in res.measured.items():
            assert val <= 1e-8

    def test_diag_v_domination_to_rounding(self):
        # vector and scalar runs are matched backward-Euler M-matrix solves:
        # the inequality holds to rounding error, not to a solver tolerance
        p = small_problem(v_params={"c": -1.0}, n=400, R=10.0)
        res = run_domination_check(p, ts=(0.1, 0.5, 1.0))
        assert res.passed
        for key, val in res.measured.items():
            assert val <= 1e-14, key


class TestUltracontractivity:
    def test_fit_on_synthetic_kernels(self):
        g = build_grid(1, 4.0, 8)
        zero = VectorField(g, np.zeros((8, 1)))
        ts = 0.01 * 2.0 ** np.arange(5)
        kernels = [
            KernelEstimate(t=t, source_cell=0, source_component=0, column=zero,
                           sup_abs=0.3 * t**-0.5)
            for t in ts
        ]
        res = run_ultracontractivity_fit(kernels, dim=1)
        assert res.passed
        assert res.measured["slope"] == pytest.approx(-0.5, abs=1e-12)
        assert res.measured["M"] == pytest.approx(0.3, rel=1e-10)

    def test_wrong_exponent_fails(self):
        g = build_grid(1, 4.0, 8)
        zero = VectorField(g, np.zeros((8, 1)))
        kernels = [
            KernelEstimate(t=t, source_cell=0, source_component=0, column=zero,
                           sup_abs=t**-1.0)
            for t in (0.01, 0.02, 0.04)
        ]
        assert not run_ultracontractivity_fit(kernels, dim=1).passed

    def test_sizing_hint_rejection(self):
        p = small_problem(n=8, R=6.0)  # h^2 too coarse for the box window
        with pytest.raises(ValueError, match="window"):
            ultracontractive_sweep(p)


class TestTrotterOrderCheck:
    def test_commuting_constant_diagonal(self):
        # commuting split: no splitting error; measured order ~2 (CN-limited)
        p = small_problem(n=48, R=6.0)
        fvals = np.zeros((48, 2), dtype=complex)
        x = p.grid.axis_coords
        fvals[:, 0] = np.exp(-x**2)
        f = VectorField(p.grid, fvals)
        ref = dense_expm_apply(p.generator, 0.5, f)
        errs = []
        for n in (8, 16, 32):
            cfg = SplitConfig(scheme="lie", diffusion_substep="crank_nicolson",
                              n_steps=n, t_final=0.5, linear_solver_tol=1e-12)
            out = trotter_evolve(p.diffusion, p.V, f, cfg).final
            errs.append(lp_norm(out - ref, 2))
        order = math.log2(errs[0] / errs[1])
        assert 1.6 < order < 2.4

    def test_bounded_triangular_strang_second_order(self):
        # smooth bounded off-diagonal coupling: strang lands at order 2
        g = build_grid(1, 6.0, 48)
        x = g.axis_coords
        vals = np.zeros((48, 2, 2))
        vals[:, 0, 0] = -1.0
        vals[:, 1, 1] = -1.0
        vals[:, 0, 1] = np.sin(x)
        M = MatrixField(g, "potential", vals)
        Q = sample_field(make_rule("identity_Q", 1)[0], g, "diffusion")
        A = assemble_diffusion(Q, g, 2)
        L = A + assemble_potential(M, 2)
        fvals = np.zeros((48, 2), dtype=complex)
        fvals[:, 0] = np.exp(-x**2)
        fvals[:, 1] = 0.3 * np.exp(-x**2)
        f = VectorField(g, fvals)
        ref = dense_expm_apply(L, 0.5, f)
        errs = []
        for n in (8, 16, 32):
            cfg = SplitConfig(scheme="strang", diffusion_substep="crank_nicolson",
                              n_steps=n, t_final=0.5, linear_solver_tol=1e-12)
            errs.append(lp_norm(trotter_evolve(A, M, f, cfg).final - ref, 2))
        order = math.log2(errs[1] / errs[2])
        assert 1.6 < order < 2.4


class TestCounterexampleChecks:
    def test_nongeneration_lambda4(self):
        res = run_nongeneration_demo(lam=4.0, extents=(25.0, 50.0), h_target=0.25)
        assert res.measured["anchor_x_u2"] == pytest.approx(0.25, rel=0.01)
        assert res.passed

    def test_shift_invariance_sigma_zero_trivial(self):
        res = run_shift_invariance_check(sigmas=(0.0,), n_per_axis=400, extent=20.0)
        assert res.passed
        assert res.measured["ratio_sigma0"] == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariance_to_rounding(self):
        # the discrete norm is translation-invariant up to boundary terms that
        # are negligible in this box, so the ratios are 1 to rounding
        res = run_shift_invariance_check(n_per_axis=200)
        for s in (1, 2, 5):
            assert res.measured[f"ratio_sigma{s}"] == pytest.approx(1.0, abs=1e-9)

    def test_shift_invariance_precondition(self):
        with pytest.raises(ValueError):
            run_shift_invariance_check(sigmas=(10.0,), extent=40.0)

    def test_control_operator_decays(self):
        res = run_shift_invariance_check(
            sigmas=(1.0, 2.0, 5.0), n_per_axis=800, extent=40.0,
            operator="absolute_control",
        )
        assert not res.passed  # constancy fails by design for the control
        assert res.measured["ratio_sigma5"] < 0.5

    def test_degenerate_zero_input_equal(self):
        # f = 0: both routes are identically zero
        p = build_problem(1, 6.0, 64, 2, v_rule="degenerate_V", shift="none")
        f = VectorField(p.grid, np.zeros((64, 2)))
        cfg = SplitConfig(scheme="lie", diffusion_substep="crank_nicolson",
                          n_steps=10, t_final=0.1)
        out = trotter_evolve(p.diffusion, p.V, f, cfg).final
        assert np.abs(out.values).max() == 0.0

    def test_degenerate_offdiagonal_dynamics_dense(self):
        # dense oracle at small N: (f, 0) input leaves the diagonal subspace
        p = build_problem(1, 6.0, 64, 2, v_rule="degenerate_V", shift="none")
        x = p.grid.axis_coords
        fvals = np.zeros((64, 2), dtype=complex)
        fvals[:, 0] = np.exp(-((x - 1.0) ** 2))
        out = dense_expm_apply(p.generator, 0.2, VectorField(p.grid, fvals))
        assert np.abs(out.values[:, 1]).max() > 0.01


class TestExampleRegistry:
    def test_consistency_check_passes_on_rotation(self):
        p = build_problem(
            1, 5.0, 120, 2, v_rule="rotation_V", v_params={"r": 1.5}, shift="auto", alpha=0.45
        )
        res = run_consistency_check(p, n_steps=200, horizon=5.0)
        assert res.passed
        assert res.measured["rel_err_p2"] <= 0.01
        assert res.measured["rel_err_p4"] <= 0.01

    def test_consistency_positive_real_pairing(self):
        from vschro.mesh import dual_pairing
        from vschro.spectral import ResolventQuery, solve_resolvent

        p = small_problem(n=100, R=5.0)
        x = p.grid.axis_coords
        fvals = np.zeros((100, 2), dtype=complex)
        fvals[:, 0] = np.exp(-x**2)
        f = VectorField(p.grid, fvals)
        val = dual_pairing(solve_resolvent(p.generator, ResolventQuery(lam=2.0, rhs=f)), f)
        assert abs(val.imag) < 1e-12
        assert val.real > 0.0
