"""Acceptance suite: one test per release criterion.

Each criterion prints its own PASS/FAIL line with the measured quantities,
so a plain `pytest -s tests/test_acceptance.py` reads as a checklist.  All
tolerances are fixed here; vschro.verify carries the independent oracles
(the sparse exponential action and the closed-form resolvent component u2).
"""

import math

import numpy as np

from vschro.cli import build_problem_from_config, bundled_config_path, load_config
from vschro.evolve import SplitConfig
from vschro.fields import distinct_matrix_powers
from vschro.problems import build_problem
from vschro.verify import (
    run_commutator_rate_check,
    run_compactness_contrast,
    run_contraction_check,
    run_degenerate_kernel_check,
    run_domination_check,
    run_nongeneration_demo,
    run_positivity_check,
    run_shift_invariance_check,
    run_trotter_order_check,
    run_ultracontractivity_check,
)


def announce(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def rotation_problem(extent=8.0, n=64):
    return build_problem(
        1, extent, n, 2, v_rule="rotation_V", v_params={"r": 1.5}, shift="auto", alpha=0.45
    )


def test_criterion_01_trotter_oracle_orders():
    problem = rotation_problem(8.0, 64)
    res = run_trotter_order_check(problem, t=0.5, n_schedule=(8, 16, 32, 64))
    lie = [res.measured[f"lie_order_{i}"] for i in range(3)]
    strang = [res.measured[f"strang_order_{i}"] for i in range(3)]
    announce(
        "criterion 1 (splitting orders vs dense exponential)",
        res.passed,
        f"lie orders {['%.2f' % o for o in lie]} in [0.7,1.3], "
        f"strang {['%.2f' % o for o in strang]} in [1.6,2.4]",
    )


def test_criterion_02_contraction_suite():
    validator_passing = []
    for name in ("rotation_r15", "diag_baseline", "degenerate"):
        problem = build_problem_from_config(load_config(bundled_config_path(name)))
        assert problem.report.dissipativity_margin <= 1e-12, f"{name} should pass the validator"
        validator_passing.append((name, problem))
    for name in ("nongeneration", "nonanalytic"):
        problem = build_problem_from_config(load_config(bundled_config_path(name)))
        assert problem.report.dissipativity_margin > 1e-12  # excluded by design

    cfg = SplitConfig(scheme="lie", substep="backward_euler", n_steps=100, t_final=1.0)
    worst = {}
    ok = True
    for name, problem in validator_passing:
        res = run_contraction_check(problem, run=cfg, seed=1234)
        worst[name] = res.measured["max_relative_increase"]
        ok = ok and res.passed

    # negative control: sign-flipped diag(-2,-2) must grow and fail
    control = build_problem(1, 8.0, 100, 2, v_rule="diag_V", v_params={"c": 2.0}, shift="none")
    control_res = run_contraction_check(control, run=cfg, seed=1234)
    ok = ok and not control_res.passed
    announce(
        "criterion 2 (contraction suite, p in {1,2,4,inf})",
        ok,
        f"max relative increases {({k: '%.1e' % v for k, v in worst.items()})}, "
        f"negative control grows by {control_res.measured['max_relative_increase']:.2e}",
    )


def test_criterion_03_positivity_iff_offdiagonal():
    forward = build_problem(
        1, 6.0, 64, 2, v_rule="coupled_V", v_params={"a": -2.0, "b": 1.0, "c": 0.5}, shift="none"
    )
    res_fwd = run_positivity_check(forward, n_random=50, seed=2024)
    converse = build_problem(
        1, 6.0, 64, 2, v_rule="coupled_V", v_params={"a": -2.0, "b": -1.0, "c": -1.0}, shift="none"
    )
    res_con = run_positivity_check(converse)
    ok = res_fwd.passed and res_con.passed
    announce(
        "criterion 3 (positivity iff off-diagonal >= 0)",
        ok,
        f"forward min {res_fwd.measured['min_value']:.2e} >= -1e-10; "
        f"converse dip {res_con.measured['component_dip']:.2e} at t = 4h^2",
    )


def test_criterion_04_pointwise_domination():
    results = {}
    ok = True
    for name, v_rule, v_params, shift in (
        ("rotation", "rotation_V", {"r": 1.5}, "auto"),
        ("diagonal", "diag_V", {"c": -1.0}, "none"),
    ):
        problem = build_problem(
            1, 10.0, 800, 2, v_rule=v_rule, v_params=v_params, shift=shift,
            alpha=0.45 if shift == "auto" else 0.0,
        )
        res = run_domination_check(problem, ts=(0.1, 0.5, 1.0))
        results[name] = max(res.measured.values())
        ok = ok and res.passed
    announce(
        "criterion 4 (|S(t)f|^2 <= T(t)|f|^2, N = 800)",
        ok,
        f"max relative excess {({k: '%.1e' % v for k, v in results.items()})} <= 1e-8",
    )


def test_criterion_05_ultracontractivity_exponent():
    slopes = {}
    ok = True
    d1 = build_problem(1, 10.0, 2000, 2, v_rule="diag_V", v_params={"c": -1.0}, shift="none")
    res1 = run_ultracontractivity_check(d1)
    slopes["d1_diag"] = res1.measured["slope"]
    ok = ok and res1.passed

    d1r = build_problem(
        1, 10.0, 2000, 2, v_rule="rotation_V", v_params={"r": 1.5}, shift="auto", alpha=0.45
    )
    res1r = run_ultracontractivity_check(d1r)
    slopes["d1_rotation"] = res1r.measured["slope"]
    ok = ok and res1r.passed

    d2 = build_problem(2, 3.2, 320, 2, v_rule="diag_V", v_params={"c": -1.0}, shift="none")
    res2 = run_ultracontractivity_check(d2)
    slopes["d2_diag"] = res2.measured["slope"]
    ok = ok and res2.passed
    announce(
        "criterion 5 (kernel-sup slope -d/2)",
        ok,
        f"slopes {({k: '%.3f' % v for k, v in slopes.items()})} within +-0.1 of -0.5/-0.5/-1.0",
    )


def test_criterion_06_nongeneration_anchor():
    res = run_nongeneration_demo(lam=1.0, extents=(50.0, 100.0, 200.0), h_target=0.125)
    announce(
        "criterion 6 (resolvent divergence for the triangular potential)",
        res.passed,
        f"x u2(x)|_1e3 = {res.measured['anchor_x_u2']:.4f} in [0.99, 1.01]; "
        f"||u1|| slope vs R = {res.measured['slope_u1_vs_R']:.3f} > 0",
    )


def test_criterion_07_nonanalyticity_witness():
    res = run_shift_invariance_check(
        mu=1.0, sigmas=(1.0, 2.0, 5.0), extent=40.0, n_per_axis=1600
    )
    control = run_shift_invariance_check(
        mu=1.0, sigmas=(5.0,), extent=40.0, n_per_axis=1600, operator="absolute_control"
    )
    ok = res.passed and (not control.passed) and control.measured["ratio_sigma5"] < 0.5
    ratios = [res.measured[f"ratio_sigma{s:g}"] for s in (1, 2, 5)]
    announce(
        "criterion 7 (vertical-line resolvent constancy vs self-adjoint control)",
        ok,
        f"ratios {['%.4f' % r for r in ratios]} within 2%; "
        f"control ratio at sigma=5: {control.measured['ratio_sigma5']:.3f} < 0.5",
    )


def test_criterion_08_degenerate_factorization():
    problem = build_problem(1, 10.0, 400, 2, v_rule="degenerate_V", shift="none", alpha=0.0)
    res = run_degenerate_kernel_check(problem, t=0.2, n_steps=200)
    announce(
        "criterion 8 (diagonal-subspace factorization)",
        res.passed,
        f"match errors {res.measured['match_err_comp0']:.2e}/{res.measured['match_err_comp1']:.2e}"
        f" <= 1e-6; generic mismatch {res.measured['generic_mismatch']:.3f} > 0.1",
    )


def test_criterion_09_hypothesis_validator_rotation():
    grow = {}
    for n in (200, 400):
        problem = rotation_problem(8.0, n)
        grow[n] = problem.report.growth_sup
    stable = (
        np.isfinite(grow[200])
        and np.isfinite(grow[400])
        and abs(grow[200] - grow[400]) <= 0.1 * grow[400]
    )
    problem = rotation_problem(8.0, 200)
    bound_ok = True
    sup_ratio = 0.0
    for s in (1.0, -1.0, 3.0, -3.0):
        powers = distinct_matrix_powers(problem.V, 1j * s)  # the sup over cells is over these
        sup = float(np.linalg.svd(powers, compute_uv=False)[:, 0].max())
        bound = math.exp(math.pi * abs(s) / 2.0)
        sup_ratio = max(sup_ratio, sup / bound)
        bound_ok = bound_ok and sup <= bound * (1 + 1e-12)
    announce(
        "criterion 9 (validator: growth bound stable, imaginary powers bounded)",
        stable and bound_ok,
        f"growth_sup {grow[200]:.6f} -> {grow[400]:.6f} (N doubling); "
        f"max ||(-V)^is||/e^(pi|s|/2) = {sup_ratio:.3f} <= 1",
    )


def test_criterion_10_commutator_identity():
    res = run_commutator_rate_check(extent=10.0, n_schedule=(200, 400))
    announce(
        "criterion 10 (commutator identity defect halves)",
        res.passed,
        f"defect {res.measured['defect_N200']:.4f} -> {res.measured['defect_N400']:.4f}, "
        f"ratio {res.measured['ratio_0']:.2f} in [1.4, 2.6]",
    )


def test_criterion_11_compactness_contrast():
    res = run_compactness_contrast(h_target=0.05, extent=10.0)
    announce(
        "criterion 11 (eigenvalue-spacing contrast under R -> 2R)",
        res.passed,
        f"rotation spacing ratio {res.measured['rotation_ratio']:.3f} in [0.8, 1.2]; "
        f"degenerate collapse x{res.measured['degenerate_ratio']:.2f} >= 3",
    )
