import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.special import exp1, expi

import vschro.evolve
import vschro.verify
from vschro.evolve import SolverError, SplitConfig, heat_step, trotter_evolve
from vschro.fields import MatrixField, make_rule, sample_field
from vschro.mesh import VectorField, build_grid, lp_norm
from vschro.operators import assemble_diffusion, assemble_potential, assemble_scalar_diffusion
from vschro.problems import build_problem
from vschro.spectral import EigenResult
from vschro.verify import (
    _bump,
    expm_apply,
    run_commutator_rate_check,
    run_compactness_contrast,
    run_consistency_check,
    run_contraction_check,
    run_degenerate_kernel_check,
    run_domination_check,
    run_nongeneration_demo,
    run_positivity_check,
    run_shift_invariance_check,
    run_trotter_order_check,
    run_ultracontractivity_check,
    u2_closed_form,
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
        A = assemble_diffusion(Q, g).on_components(3)
        f = trotter_input(g, 3)
        once = expm_apply(A, 2e-3, f)
        twice = expm_apply(A, 1e-3, expm_apply(A, 1e-3, f))
        assert lp_norm(once - twice, 2) <= 1e-12 * lp_norm(once, 2)

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


def degenerate_problem(n_per_axis=400, shift="none"):
    """The degenerate coupling |x| [[-1, 1], [1, -1]] on the box of R = 10."""
    return build_problem(1, 10.0, n_per_axis, 2, v_rule="degenerate_V", shift=shift, alpha=0.0)


class TestContraction:
    LIE_BE = dict(scheme="lie", substep="backward_euler")

    def test_norms_that_underflow_to_zero_pass(self, monkeypatch):
        # at tau = 200 a step scales the norms by at most e^{-tau} / (1 + tau),
        # so they underflow to exact zeros, where the relative increase reads
        # 0 against the 1e-300 floor, not 0/0
        trajs = []

        def evolve(*args):
            trajs.append(trotter_evolve(*args))
            return trajs[-1]

        monkeypatch.setattr(vschro.verify, "trotter_evolve", evolve)
        p = small_problem(n=16)
        cfg = SplitConfig(**self.LIE_BE, n_steps=50, t_final=1e4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_contraction_check(p, run=cfg, seed=1)
        assert res.passed
        (traj,) = trajs
        assert np.count_nonzero(traj.norm_log[1.0] == 0.0) == 49  # of 51 logged 1-norms

    def test_negative_control_fails(self):
        # sign-flipped diag(-2,-2): growth beats the -I shift, check must fail
        p = small_problem(v_rule="diag_V", v_params={"c": 2.0})
        cfg = SplitConfig(**self.LIE_BE, n_steps=50, t_final=1.0)
        res = run_contraction_check(p, run=cfg, seed=1)
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


@pytest.mark.parametrize("check, kwargs", [
    (lambda **kw: run_positivity_check(small_problem(), **kw), {"t_forward": 0.0}),
    (lambda **kw: run_domination_check(small_problem(), **kw), {"ts": (0.1, -1.0)}),
    (lambda **kw: run_degenerate_kernel_check(degenerate_problem(100), **kw), {"t": 0.0}),
    (lambda **kw: run_degenerate_kernel_check(degenerate_problem(100), **kw), {"n_steps": 0}),
], ids=["positivity_t_forward", "domination_ts", "degenerate_kernel_t", "degenerate_kernel_steps"])
def test_split_step_sizes_are_checked(check, kwargs):
    """A check that builds its split step from a step size refuses a size
    that is not positive, as SplitConfig does for a run's t_final and n_steps."""
    with pytest.raises(ValueError, match="must be"):
        check(**kwargs)


class TestDirectCalls:
    """A direct call admits each key it passes through the domain a config
    key has, and names the key."""

    def test_decreasing_trotter_schedule(self):
        p = small_problem(v_rule="rotation_V", v_params={"r": 1.5}, shift="auto", alpha=0.45)
        with pytest.raises(ValueError, match=r"n_schedule must be strictly increasing, got \[16, 8\]"):
            run_trotter_order_check(p, n_schedule=(16, 8))

    def test_zero_nongeneration_spacing(self):
        with pytest.raises(ValueError, match="h_target must be positive, got 0"):
            run_nongeneration_demo(h_target=0)

    def test_non_finite_commutator_defect_is_refused(self, monkeypatch):
        # the safety net behind the stencil refusal below
        monkeypatch.setattr(vschro.verify, "commutator_defect", lambda Q, M, f: math.inf)
        with pytest.raises(ValueError, match="extent = 10.0 gives a commutator defect that is zero or not finite"):
            run_commutator_rate_check()

    def test_vanishing_commutator_defect_is_refused(self):
        # on a box this wide the data underflow to 0 on every cell: no ratio to take
        with pytest.raises(ValueError, match=r"extent = 10000000000.0 gives a commutator defect that is "
                                             r"zero or not finite: \[0.0, 0.0\]"):
            run_commutator_rate_check(extent=1e10)

    @pytest.mark.parametrize("extent", [1e155, 1e300])
    def test_overflowing_commutator_data_is_refused_without_a_warning(self, extent):
        # x^2 overflows on the far cells; the bumps there are the 0 they
        # underflow to, so the refusal is the vanishing defect's, and quiet
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"extent = {extent!r} gives a commutator "
                                                           "defect that is zero or not finite: [0.0, 0.0]")):
                run_commutator_rate_check(extent=extent)

    def test_overflowing_commutator_stencil_is_refused(self):
        # 1/h^2 is finite on both grids, but the 400-cell stencil's diagonal
        # 4/h^2 is not: refused before assembly, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="extent = 1.8e-152 is too small for 400 cells per axis"):
                run_commutator_rate_check(extent=1.8e-152)

    @pytest.mark.parametrize("shift, limit", [("none", "709.783"), ("auto", "354.891")])
    def test_overflowing_degenerate_kernel_t_is_refused_before_any_step(self, monkeypatch, shift, limit):
        # the flow is un-rescaled by e^(t * (1 + shift)); no step is built for a t it overflows at
        monkeypatch.setattr(vschro.verify, "heat_step", None)
        monkeypatch.setattr(vschro.verify, "split_step", None)
        with pytest.raises(ValueError, match=rf"t = 1000.0 overflows the rescale .*at most {limit} "):
            run_degenerate_kernel_check(degenerate_problem(100, shift), t=1000.0, n_steps=10)

    def test_keys_are_keyword_only(self):
        with pytest.raises(TypeError):
            run_domination_check(None, (0.1,))

    @pytest.mark.parametrize("check", [run_nongeneration_demo, run_compactness_contrast],
                             ids=["nongeneration", "compactness"])
    def test_fine_grid_refused_before_it_is_built(self, monkeypatch, check):
        def build(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(vschro.verify, "build_grid", build)
        monkeypatch.setattr(vschro.verify, "build_problem", build)
        with pytest.raises(ValueError, match="h_target = 1e-09 puts more than 4000000 unknowns"):
            check(h_target=1e-9)

    def test_compactness_levels_beyond_the_coarse_grid(self, monkeypatch):
        # 4 cells of 2 components on the R = 10 box allow at most 6 eigenpairs
        monkeypatch.setattr(vschro.verify, "build_problem", None)
        with pytest.raises(ValueError, match=r"h_target = 4 puts 4 cells on the box of R = 10, too few "
                                             r"for the 20 eigenpairs the contrast takes \(at most 6\)"):
            run_compactness_contrast(h_target=4)


class TestDomination:
    def test_zero_field_trivial(self):
        p = small_problem()
        res = run_domination_check(p, ts=(0.1,))
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


# The three loops below are the checks as they were before each built its
# split step once: one trotter_evolve (and one heat_step) per field or
# horizon.  The checks must reproduce them bit for bit.

def positivity_reference(problem, n_random, t_forward=0.1, seed=2024):
    rng = np.random.default_rng(seed)
    cfg = SplitConfig(scheme="lie", substep="backward_euler", n_steps=10,
                      t_final=t_forward)
    worst = np.inf
    for _ in range(n_random):
        f = VectorField(problem.grid, rng.random((problem.grid.n_cells, problem.m)).astype(complex))
        out = trotter_evolve(problem.diffusion, problem.V, f, cfg, norm_ps=(2,)).final
        worst = min(worst, float(out.values.real.min()))
    return {"min_value": worst, "offdiag_min": problem.report.offdiag_min}


def domination_reference(problem, ts=(0.1, 0.5, 1.0), width=1.0, tau_target=5e-3):
    grid = problem.grid
    profile = _bump(grid, 0.0, width)
    fvals = np.zeros((grid.n_cells, problem.m), dtype=complex)
    fvals[:, 0] = profile
    if problem.m > 1:
        fvals[:, 1] = 0.5 * profile
    f = VectorField(grid, fvals)
    sq0 = VectorField(grid, (np.abs(fvals) ** 2).sum(axis=1).astype(complex)[:, None])
    measured = {}
    for t in ts:
        n = max(20, int(math.ceil(t / tau_target)))
        cfg = SplitConfig(scheme="lie", substep="backward_euler", n_steps=n,
                          t_final=t)
        u = trotter_evolve(problem.diffusion, problem.V, f, cfg, norm_ps=(2,)).final
        w = heat_step(problem.Q, t / n, cfg).run(sq0, n, norm_ps=()).final
        usq = (np.abs(u.values) ** 2).sum(axis=1)
        wvals = w.values[:, 0].real
        measured[f"excess_t{t:g}"] = float(np.max(usq - wvals) / max(wvals.max(), 1e-300))
    return measured


def degenerate_reference(problem, t, n_steps, center=1.0, width=1.0):
    grid = problem.grid
    profile = _bump(grid, center, width).astype(complex)
    cfg = SplitConfig(scheme="lie", substep="crank_nicolson", n_steps=n_steps,
                      t_final=t)
    wref = heat_step(problem.Q, t / n_steps, cfg).run(
        VectorField(grid, profile[:, None]), n_steps, norm_ps=()).final.values[:, 0]
    wnorm = max(np.linalg.norm(wref), 1e-300)
    scale = math.exp(t * problem.unrescale_rate)
    diag0 = VectorField(grid, np.column_stack([profile, profile]))
    ud = trotter_evolve(problem.diffusion, problem.V, diag0, cfg, norm_ps=(2,)).final
    gen0 = VectorField(grid, np.column_stack([profile, 0.0 * profile]))
    ug = trotter_evolve(problem.diffusion, problem.V, gen0, cfg, norm_ps=(2,)).final
    return {
        "match_err_comp0": float(np.linalg.norm(scale * ud.values[:, 0] - wref) / wnorm),
        "match_err_comp1": float(np.linalg.norm(scale * ud.values[:, 1] - wref) / wnorm),
        "generic_mismatch": float(np.linalg.norm(scale * ug.values[:, 0] - wref) / wnorm),
    }


def step_problem(dim, v_rule):
    """Real (diag_V, m = 2) or complex (complex_linear_V, m = 1) potential,
    both on the forward branch of the positivity check."""
    m = 2 if v_rule == "diag_V" else 1
    n = 64 if dim == 1 else 16
    return build_problem(dim, 6.0, n, m, v_rule=v_rule, shift="none")


PROBLEM_CASES = [(1, "diag_V"), (1, "complex_linear_V"), (2, "diag_V"), (2, "complex_linear_V")]


@pytest.fixture
def factor_log(monkeypatch):
    """Records the step matrix of every LU the split steps build, and the
    batch size of every matrix_exp call they make."""
    log = {"lu": [], "exp": []}
    sparse_lu, matrix_exp = vschro.evolve.sparse_lu, vschro.evolve.matrix_exp

    def counting_lu(matrix):
        log["lu"].append(matrix)
        return sparse_lu(matrix)

    def counting_exp(M):
        log["exp"].append(len(M))
        return matrix_exp(M)

    monkeypatch.setattr(vschro.evolve, "sparse_lu", counting_lu)
    monkeypatch.setattr(vschro.evolve, "matrix_exp", counting_exp)
    return log


def step_matrix(D, tau):
    return (sp.identity(D.shape[0], format="csr") - tau * D).tocsc()


def same_matrix(a, b):
    return a.shape == b.shape and abs(a - b).max() == 0.0


class TestBuiltSteps:
    """Positivity, domination and the degenerate-kernel check build each
    split step once per step size and reuse it for every field or horizon,
    with the results of one trotter_evolve per field, bit for bit."""

    def test_positivity_factors_once(self, factor_log):
        p = small_problem()
        res = run_positivity_check(p, n_random=50)
        assert res.passed
        assert len(factor_log["lu"]) == 1
        assert factor_log["exp"] == [1]  # diag_V is constant: one cell exponentiated
        assert same_matrix(factor_log["lu"][0], step_matrix(p.diffusion.matrix, 0.01))

    def test_default_domination_factors_one_vector_and_one_scalar_step(self, factor_log):
        p = small_problem()
        res = run_domination_check(p)
        assert list(res.measured) == ["excess_t0.1", "excess_t0.5", "excess_t1"]
        vector, scalar = factor_log["lu"]
        assert same_matrix(vector, step_matrix(p.diffusion.matrix, 0.005))
        D = assemble_scalar_diffusion(p.Q, p.grid)
        assert same_matrix(scalar, step_matrix(D, 0.005))
        assert factor_log["exp"] == [1]

    @pytest.mark.parametrize("ts, n_steps", [
        ((0.1, 0.33), 1),  # 0.33 / 66 == 0.005 == 0.1 / 20 exactly: one step size
        ((0.1, 0.333), 2),  # 0.333 / 67 != 0.005
    ])
    def test_domination_builds_one_step_per_step_size(self, factor_log, ts, n_steps):
        p = small_problem()
        taus = [t / max(20, math.ceil(t / 5e-3)) for t in ts]
        assert len(set(taus)) == n_steps
        res = run_domination_check(p, ts=ts)
        assert len(factor_log["lu"]) == 2 * n_steps and len(factor_log["exp"]) == n_steps
        # every vector step first, then every scalar step
        D = assemble_scalar_diffusion(p.Q, p.grid)
        vector = [step_matrix(p.diffusion.matrix, tau) for tau in sorted(set(taus), key=taus.index)]
        scalar = [step_matrix(D, tau) for tau in sorted(set(taus), key=taus.index)]
        for got, want in zip(factor_log["lu"], vector + scalar, strict=True):
            assert same_matrix(got, want)
        assert res.measured == domination_reference(p, ts=ts)

    def test_domination_keeps_the_order_of_ts(self, factor_log):
        # 1.0, 0.1 and 0.5 share one step size and 0.333 has its own: two
        # builds for each flow, and measured still in the order of ts
        p = small_problem()
        ts = (1.0, 0.333, 0.1, 0.5)
        res = run_domination_check(p, ts=ts)
        assert list(res.measured) == ["excess_t1", "excess_t0.333", "excess_t0.1", "excess_t0.5"]
        assert len(factor_log["lu"]) == 4
        assert res.measured == domination_reference(p, ts=ts)

    @pytest.mark.parametrize("ts, steps, fresh", [
        ((0.1, 0.5, 1.0), [20, 80, 100], [True, False, False]),
        ((1.0, 0.1, 0.5, 0.1), [20, 80, 100], [True, False, False]),
        ((0.1, 0.333), [20, 67], [True, True]),
    ], ids=["default", "unsorted_and_repeated", "two_step_sizes"])
    def test_domination_continues_one_run_per_step_size(self, monkeypatch, ts, steps, fresh):
        # each step size is one run continued from horizon to horizon: the
        # default ts take 200 vector and 200 scalar steps, not 320 and 320
        log = []
        run = vschro.evolve.SplitStep.run

        def logged_run(step, f, n_steps, *args, **kwargs):
            out = run(step, f, n_steps, *args, **kwargs)
            log.append((step.m, n_steps, f, out.final))
            return out

        monkeypatch.setattr(vschro.evolve.SplitStep, "run", logged_run)
        p = small_problem()
        res = run_domination_check(p, ts=ts)
        assert [(m, n) for m, n, _, _ in log] == [(p.m, n) for n in steps] + [(1, n) for n in steps]
        # a run that continues starts from the previous run's final state
        for flow in (log[:len(steps)], log[len(steps):]):
            for prev, cur, new in zip(flow, flow[1:], fresh[1:]):
                assert (cur[2] is prev[3]) != new
        assert res.measured == domination_reference(p, ts=ts)

    def test_degenerate_kernel_factors_once_for_both_runs(self, factor_log):
        run_degenerate_kernel_check(degenerate_problem(100), n_steps=50)
        assert len(factor_log["lu"]) == 2  # the scalar flow and the shared vector step
        assert len(factor_log["exp"]) == 1

    @pytest.mark.parametrize("check", [
        lambda: run_positivity_check(small_problem(), n_random=5),
        lambda: run_domination_check(small_problem(), ts=(0.1, 0.333, 0.5)),
        lambda: run_degenerate_kernel_check(degenerate_problem(100), n_steps=50),
    ], ids=["positivity", "domination", "degenerate_kernel"])
    def test_one_factor_alive_at_a_time(self, monkeypatch, check):
        # the 2D step matrices' factors dominate peak memory: a check may
        # reuse a factor, but never hold two
        live, peak = [0], [0]

        class TrackedLU:
            def __init__(self, lu):
                self.lu = lu
                live[0] += 1
                peak[0] = max(peak[0], live[0])

            def solve(self, rhs):
                return self.lu.solve(rhs)

            def __del__(self):
                live[0] -= 1

        sparse_lu = vschro.evolve.sparse_lu
        monkeypatch.setattr(vschro.evolve, "sparse_lu", lambda matrix: TrackedLU(sparse_lu(matrix)))
        check()
        assert peak[0] == 1 and live[0] == 0

    @pytest.mark.parametrize("dim, v_rule", PROBLEM_CASES)
    def test_positivity_matches_per_field_loop(self, dim, v_rule):
        p = step_problem(dim, v_rule)
        assert np.iscomplexobj(p.V.values) == (v_rule == "complex_linear_V")
        res = run_positivity_check(p, n_random=6)
        assert res.measured == positivity_reference(p, n_random=6)

    @pytest.mark.parametrize("dim, v_rule", PROBLEM_CASES)
    def test_domination_matches_per_horizon_loop(self, dim, v_rule):
        p = step_problem(dim, v_rule)
        ts = (0.1, 0.33, 0.5)
        res = run_domination_check(p, ts=ts)
        assert res.measured == domination_reference(p, ts=ts)

    @pytest.mark.parametrize("n_per_axis, n_steps", [(100, 50), (160, 80)])
    def test_degenerate_kernel_matches_separate_runs(self, n_per_axis, n_steps):
        p = degenerate_problem(n_per_axis)
        res = run_degenerate_kernel_check(p, n_steps=n_steps)
        assert res.measured == degenerate_reference(p, 0.2, n_steps)

    def test_shifted_degenerate_kernel_matches_separate_runs(self):
        # shift = auto subtracts I: the rescale is e^{2t}, and the check still passes
        p = degenerate_problem(100, shift="auto")
        assert p.V.shift == 1.0 and p.unrescale_rate == 2.0
        res = run_degenerate_kernel_check(p)
        assert res.passed and res.measured == degenerate_reference(p, 0.2, 200)

    @pytest.mark.parametrize("check, n_solves", [
        (lambda p: run_positivity_check(p, n_random=50), 10),  # one block of 50 fields
        (lambda p: run_domination_check(p), 200),
    ], ids=["positivity", "domination"])
    def test_residual_miss_mid_loop_raises(self, corrupt_factors, check, n_solves):
        bad_call = n_solves // 2
        calls = corrupt_factors(at=bad_call)
        with pytest.raises(SolverError, match="residual"):
            check(small_problem())
        assert len(calls) == bad_call + 1


class TestUltracontractivity:
    @pytest.fixture
    def sweep_of(self, monkeypatch):
        """Make the kernel sweep return sup(t) at each of its times."""
        def use(sup):
            monkeypatch.setattr(vschro.verify, "kernel_sweep", lambda D, V, ts, *rest: [sup(t) for t in ts])
        return use

    def test_fit_on_synthetic_kernels(self, sweep_of):
        sweep_of(lambda t: 0.3 * t**-0.5)
        res = run_ultracontractivity_check(small_problem(n=200, R=8.0))
        assert res.passed
        assert res.measured["slope"] == pytest.approx(-0.5, abs=1e-12)
        assert res.measured["M"] == pytest.approx(0.3, rel=1e-10)

    def test_wrong_exponent_fails(self, sweep_of):
        sweep_of(lambda t: t**-1.0)
        assert not run_ultracontractivity_check(small_problem(n=200, R=8.0)).passed

    def test_sizing_hint_rejection(self):
        p = small_problem(n=8, R=6.0)  # h^2 too coarse for the box window
        with pytest.raises(ValueError, match="window"):
            run_ultracontractivity_check(p)


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
            cfg = SplitConfig(scheme="lie", substep="crank_nicolson",
                              n_steps=n, t_final=0.5)
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
        A = assemble_diffusion(Q, g)
        L = A.on_components(2) + assemble_potential(M, 2)
        fvals = np.zeros((48, 2), dtype=complex)
        fvals[:, 0] = np.exp(-x**2)
        fvals[:, 1] = 0.3 * np.exp(-x**2)
        f = VectorField(g, fvals)
        ref = dense_expm_apply(L, 0.5, f)
        errs = []
        for n in (8, 16, 32):
            cfg = SplitConfig(scheme="strang", substep="crank_nicolson",
                              n_steps=n, t_final=0.5)
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

    def test_shift_invariance_failure_is_not_retried(self, monkeypatch):
        resolvent_norm = vschro.verify.resolvent_norm

        def failing_at_sigma2(B, lam):
            if lam == 1.0 - 2.0j:
                raise SolverError("ARPACK norm estimate failed")
            return resolvent_norm(B, lam)

        monkeypatch.setattr(vschro.verify, "resolvent_norm", failing_at_sigma2)
        with pytest.raises(SolverError, match="ARPACK"):
            run_shift_invariance_check(n_per_axis=200)

    def test_compactness_with_too_few_levels_is_solver_error(self, monkeypatch):
        monkeypatch.setattr(vschro.verify, "eigenpairs",
                            lambda L, k, shift: EigenResult([-1.0] * k, [0.0] * k))
        with pytest.raises(SolverError, match="only 1 distinct levels for rotation"):
            run_compactness_contrast(h_target=0.5)

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
        cfg = SplitConfig(scheme="lie", substep="crank_nicolson",
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
        from vschro.spectral import solve_resolvent

        p = small_problem(n=100, R=5.0)
        x = p.grid.axis_coords
        fvals = np.zeros((100, 2), dtype=complex)
        fvals[:, 0] = np.exp(-x**2)
        f = VectorField(p.grid, fvals)
        val = dual_pairing(solve_resolvent(p.generator, 2.0, f), f)
        assert abs(val.imag) < 1e-12
        assert val.real > 0.0
