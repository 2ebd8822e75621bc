"""Theorem-level property checks with machine-readable verdicts.

Each check measures the quantities behind one qualitative claim about the
semigroup (contraction in every p, positivity iff nonnegative off-diagonal
coupling, pointwise domination by the scalar flow, t^{-d/2} kernel
smoothing, splitting convergence orders, resolvent divergence for the
non-semibounded counterexample, vertical-line resolvent constancy for the
non-analytic generator, factorization on the degenerate coupling's invariant
subspace, and eigenvalue-spacing stability as the box grows) and reduces
them to a pass/fail verdict with the tolerance recorded next to it.

The independent oracles used by the checks live here too: the action of the
matrix exponential of the assembled sparse generator (scipy's expm_multiply,
Al-Mohy & Higham 2011) and the explicit resolvent component u2 in
exponential integrals.  They are deliberately disjoint from the split-step
evolution code they judge.
"""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import dataclass
from functools import partial, wraps

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from vschro.evolve import (
    SolverError,
    SplitConfig,
    heat_step,
    split_step,
    trotter_evolve,
)
from vschro.fields import MatrixField, make_rule, sample_field
from vschro.mesh import VectorField, build_grid, dual_pairing, lp_norm
from vschro.operators import (
    SparseOperator,
    assemble_potential,
    assemble_scalar_diffusion,
    commutator_defect,
)
from vschro.problems import Problem, build_problem
from vschro.spectral import (
    eigenpairs,
    kernel_sweep,
    max_eigenpairs,
    resolvent_norm,
    solve_resolvent,
)

__all__ = [
    "CHECKS",
    "CHECK_INPUTS",
    "CHECK_KEYS",
    "PropertyCheckResult",
    "expm_apply",
    "u2_closed_form",
    "run_contraction_check",
    "run_consistency_check",
    "run_positivity_check",
    "run_domination_check",
    "run_ultracontractivity_check",
    "run_trotter_order_check",
    "run_nongeneration_demo",
    "run_shift_invariance_check",
    "run_degenerate_kernel_check",
    "run_commutator_rate_check",
    "run_compactness_contrast",
]


@dataclass
class PropertyCheckResult:
    """Verdict for one theorem-level check.

    passed is a pure function of the measured map against the tolerance; the
    raw measurements always travel with the verdict so a failing run can be
    diagnosed from the report alone.
    """

    name: str
    passed: bool
    measured: dict
    tolerance: float
    notes: str = ""


# ---------------------------------------------------------------------------
# Oracles.  Everything below is independent of the split-step code paths.

def expm_apply(L: SparseOperator, t: float, f: VectorField) -> VectorField:
    """Reference evolution e^{tL} f by the action of the sparse matrix exponential."""
    out = expm_multiply(t * L.matrix, f.values.ravel())
    return VectorField(f.grid, out.reshape(f.grid.n_cells, L.m))


def _scaled_exp_integral(z: float, sign: int) -> float:
    """e^z E1(z) for sign = -1, e^{-z} Ei(z) for sign = +1 (z > 0).

    From z = 40 on, where the exponential factors overflow at the
    nongeneration anchor, the asymptotic series sum_{k<40} sign^k k!/z^{k+1}
    (DLMF 6.12.1, 6.12.2) replaces the product; its smallest term there is
    below 1e-16 of the sum.
    """
    if z < 40.0:
        from scipy.special import exp1, expi  # deferred: only nongeneration needs it
        return math.exp(z) * exp1(z) if sign < 0 else math.exp(-z) * expi(z)
    term, total = 1.0 / z, 0.0
    for k in range(1, 41):
        total += term
        term *= sign * k / z
    return total


def u2_closed_form(x: float, lam: float) -> float:
    """Second component of the explicit resolvent for the triangular
    potential, with the source 1/t on [1, inf) and u2(1) = 0.

    With a = sqrt(lam), the tail int_0^inf e^{-as}/(x+s) ds is e^{ax} E1(ax)
    and the body int_1^x e^{-a(x-t)}/t dt is e^{-ax}(Ei(ax) - Ei(a)); the
    boundary matching at x = 1 fixes the homogeneous term
    -e^a E1(a) e^{-a(x-1)}, and the sum is divided by 2a.
    """
    from scipy.special import expi  # deferred, as in _scaled_exp_integral

    a = math.sqrt(lam)
    if x < 1.0:
        return 0.0
    tail = _scaled_exp_integral(a * x, -1)
    body = _scaled_exp_integral(a * x, 1) - math.exp(-a * x) * expi(a)
    c_term = -_scaled_exp_integral(a, -1) * math.exp(-a * (x - 1.0))
    return float((tail + body + c_term) / (2.0 * a))


def _bump(grid, center=0.0, width=1.0):
    """Smooth Gaussian bump sampled on the grid, centred at (center, ..., center)."""
    r2 = ((grid.coords() - center) ** 2).sum(axis=1)
    return np.exp(-r2 / (2.0 * width**2))


def _bump_pair(problem: Problem) -> VectorField:
    """The unit bump at the origin in component 0 and half of it in component
    1, if there is one: the input of the domination and splitting-order checks."""
    profile = _bump(problem.grid)
    vals = np.zeros((problem.grid.n_cells, problem.m), dtype=complex)
    vals[:, 0] = profile
    if problem.m > 1:
        vals[:, 1] = 0.5 * profile
    return VectorField(problem.grid, vals)


# ---------------------------------------------------------------------------
# Checks.  Each check's receiving function declares its config keys once,
# with @_takes, as keyword-only parameters with their domains; cli builds the
# [check.<name>] sections of a config from CHECK_KEYS and calls each check
# through CHECKS.  A key sets what a check measures, never the bar it must
# pass: every threshold is fixed, below if two lines use it, else as a literal.

_HARD_CAP_UNKNOWNS = 4_000_000  # unknowns of any grid a config or a check builds
_SLACK = 1e-8  # contraction, domination: relative norm growth and excess accepted
_CONSISTENCY_TOL = 0.01  # relative error of the Laplace-transform identity
_POSITIVITY_FLOOR = 1e-10  # positivity: values down to -1e-10 count as nonnegative
_SMOOTHING_TOL = 0.1  # distance of the smoothing exponent from -d/2
_SHIFT_TOL = 0.02  # change of the resolvent norm along the vertical line
_ORDER_WINDOWS = {"lie": (0.7, 1.3), "strang": (1.6, 2.4)}  # splitting orders accepted
_ANCHOR_TOL = 0.01  # relative error of x u2(x) against 1/lam at x = 1e3
_MATCH_TOL = 1e-6  # degenerate coupling: diagonal data against the scalar flow
_RATIO_WINDOW = (1.4, 2.6)  # commutator defect ratios accepted under N doubling
_N_LEVELS = 10  # eigenvalue levels whose spacing the compactness contrast takes
_N_EIGENPAIRS = 2 * _N_LEVELS  # eigenpairs computed to find them
_STABILITY_TOL = 0.2  # largest change of the rotation spacing as R doubles


@dataclass(frozen=True)
class _Domain:
    """A cast (int, float, (int,) or (float,) for a list of that type, or another
    _Domain) whose value must also pass test; `says` completes "<key> ..."."""

    cast: object
    says: str
    test: object

    def admit(self, key: str, value):
        """A ValueError naming key unless value passes every nested test."""
        if isinstance(self.cast, _Domain):
            self.cast.admit(key, value)
        if not self.test(value):
            shown = list(value) if isinstance(value, tuple) else value
            raise ValueError(f"{key} {self.says}, got {shown!r}")


def _increasing(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


_NON_NEGATIVE_INT = _Domain(int, "must be non-negative", lambda v: v >= 0)
_POSITIVE = _Domain(float, "must be positive", lambda v: v > 0)
_AT_LEAST_ONE = _Domain(int, "must be at least 1", lambda v: v >= 1)
_AT_LEAST_THREE = _Domain(int, "must be at least 3", lambda v: v >= 3)
_ALL_POSITIVE = _Domain((float,), "must be positive", lambda v: all(x > 0 for x in v))
# A point where a resolvent norm is taken, or a spectrum's shift: Lanczos reads
# ||R||^2 ~ 1/|lam|^2, which leaves float64's normal range near |lam| = 1.5e154.
_RESOLVENT_POINT = _Domain(float, "must lie in [-1e150, 1e150]", lambda v: abs(v) <= 1e150)


def _entries(least: int, domain) -> _Domain:
    """domain, a list cast, with at least `least` entries."""
    return _Domain(domain, f"needs at least {least} {'entry' if least == 1 else 'entries'}",
                   lambda v: len(v) >= least)


def _schedule(least: int) -> _Domain:
    """Two or more step or cell counts, each at least `least`, strictly increasing."""
    entries = _Domain((int,), f"must be at least {least}", lambda v: all(n >= least for n in v))
    return _entries(2, _Domain(entries, "must be strictly increasing", _increasing))


def _cells(m: int, domain=_AT_LEAST_THREE) -> _Domain:
    """domain, the cells per axis of a 1D grid of m components (a count or a
    list of counts), each within the hard cap on unknowns."""
    most = _HARD_CAP_UNKNOWNS // m
    return _Domain(domain, f"must be at most {most}: the hard cap is {_HARD_CAP_UNKNOWNS} "
                   f"unknowns, {m} per cell", lambda v: np.max(v) <= most)


def _box_cells(extent: float, h_target: float) -> int:
    """Cells per axis of the 1D box [-extent, extent] at spacing near
    h_target; a ValueError naming h_target, raised before the grid is built,
    unless they are at least 3 and 2 components of them keep within the
    hard cap."""
    span = 2.0 * extent / h_target
    if not math.isfinite(span) or 2 * (round(span) - 1) > _HARD_CAP_UNKNOWNS:
        raise ValueError(f"h_target = {h_target!r} puts more than {_HARD_CAP_UNKNOWNS} unknowns "
                         f"(the hard cap) on the box of R = {extent:g}")
    if round(span) - 1 < 3:
        raise ValueError(f"h_target = {h_target!r} leaves fewer than 3 cells on the box of R = {extent:g}")
    return int(round(span)) - 1


CHECK_KEYS = {}  # check name -> {key: _Domain}, in the order the checks are defined
CHECKS = {}  # check name -> its receiving function
# check name -> the inputs of a run its receiving function takes: the
# [problem] it judges, the [run] it steps and the [output] seed it draws from
CHECK_INPUTS = {}


def _takes(check: str, **keys):
    """Register the decorated function in CHECKS as the one that receives
    `check`'s config keys, each a keyword-only parameter in the _Domain given
    here, and record in CHECK_INPUTS the run inputs it takes by name; every
    call admits each of those keys that it passes."""

    def register(fn):
        CHECK_KEYS[check] = keys
        CHECK_INPUTS[check] = {"problem", "run", "seed"}.intersection(inspect.signature(fn).parameters)

        @wraps(fn)
        def admitted(*args, **kwargs):
            for key, value in kwargs.items():
                if key in keys:
                    keys[key].admit(key, value)
            return fn(*args, **kwargs)

        CHECKS[check] = admitted
        return admitted

    return register


@_takes("contraction")
def run_contraction_check(problem: Problem, *, run: SplitConfig, seed: int) -> PropertyCheckResult:
    """Along `run` from a seeded random field (cli runs only Lie / backward
    Euler, whose contraction is exact), every logged p-norm must be
    nonincreasing up to relative _SLACK."""
    rng = np.random.default_rng(seed)
    shape = (problem.grid.n_cells, problem.m)
    f = VectorField(problem.grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    traj = trotter_evolve(problem.diffusion, problem.V, f, run)
    worst, worst_p = -np.inf, math.nan
    for p, norms in traj.norm_log.items():
        prev = np.maximum(norms[:-1], 1e-300)
        growth = float(np.max(np.diff(norms) / prev))
        if growth > worst:
            worst, worst_p = growth, float(p)
    return PropertyCheckResult(
        name="contraction",
        passed=bool(worst <= _SLACK),
        measured={"max_relative_increase": worst, "worst_p": worst_p},
        tolerance=_SLACK,
        notes="all logged p-norms nonincreasing along the trajectory",
    )


@_takes("consistency", lam=_POSITIVE, horizon=_POSITIVE, n_steps=_AT_LEAST_ONE)
def run_consistency_check(
    problem: Problem,
    *,
    lam: float = 2.0,
    horizon: float = 6.0,
    n_steps: int = 300,
) -> PropertyCheckResult:
    """Laplace-transform identity <(lam - L)^{-1} f, g> = int e^{-lam t} <S(t)f, g> dt.

    f is a bump in the first component, g a bump in the last.  The discrete
    pairing is p-independent, so the identity is verified under two dual
    normalizations of the same data, (p, p') = (2, 2) and (4, 4/3).
    A pairing that vanishes (f and g in decoupled components) measures
    nothing and is rejected as inconclusive.
    """
    grid = problem.grid
    fvals = np.zeros((grid.n_cells, problem.m), dtype=complex)
    fvals[:, 0] = _bump(grid, 0.0, grid.extent / 8.0)
    f = VectorField(grid, fvals)
    gvals = np.zeros((grid.n_cells, problem.m), dtype=complex)
    gvals[:, -1] = _bump(grid, grid.extent / 4.0, grid.extent / 10.0)
    g = VectorField(grid, gvals)

    direct = dual_pairing(solve_resolvent(problem.generator, lam, f), g)
    if abs(direct) <= 1e-12 * lp_norm(f, 2) * lp_norm(g, 2) / lam:
        raise ValueError("inconclusive: <(lam - L)^-1 f, g> vanishes; the potential "
                         "does not couple the components of f and g")
    cfg = SplitConfig(scheme="strang", substep="crank_nicolson", n_steps=n_steps, t_final=horizon)
    traj = trotter_evolve(problem.diffusion, problem.V, f, cfg, norm_ps=(), snapshot_stride=1)
    times = np.array(traj.snapshot_times)
    pair = np.array([dual_pairing(s, g) for s in traj.snapshots])
    quad_side = complex(np.trapezoid(np.exp(-lam * times) * pair, times))

    measured = {}
    ok = True
    for p, pdual in ((2.0, 2.0), (4.0, 4.0 / 3.0)):
        nf, ng = lp_norm(f, p), lp_norm(g, pdual)
        scale = 1.0 / (nf * ng)
        err = abs(direct - quad_side) * scale / max(abs(direct) * scale, 1e-300)
        measured[f"rel_err_p{p:g}"] = float(err)
        ok = ok and err <= _CONSISTENCY_TOL
    return PropertyCheckResult(
        name="consistency",
        passed=bool(ok),
        measured=measured,
        tolerance=_CONSISTENCY_TOL,
        notes="resolvent pairing equals the Laplace transform of the evolved pairing",
    )


@_takes("positivity", n_random=_AT_LEAST_ONE, t_forward=_POSITIVE)
def run_positivity_check(
    problem: Problem,
    *,
    n_random: int = 50,
    t_forward: float = 0.1,
    seed: int = 2024,
) -> PropertyCheckResult:
    """Positivity iff all off-diagonal potential entries are nonnegative.

    Forward branch (offdiag >= 0): nonnegative inputs must stay above
    -_POSITIVITY_FLOOR.  Converse branch: a bump placed in component l at the
    cell where v_kl < 0 must push component k below -_POSITIVITY_FLOOR within
    t ~ 4 h^2.
    """
    grid = problem.grid
    m = problem.m
    if grid.dim == 2 and float(np.max(np.abs(problem.Q.values[:, 0, 1]))) > 1e-14:
        raise ValueError("positivity check needs diagonal Q (M-matrix diffusion step)")
    if problem.report.offdiag_min >= 0.0:
        rng = np.random.default_rng(seed)
        n_steps = 10
        cfg = SplitConfig(substep="backward_euler")
        step = split_step(problem.diffusion, problem.V, t_forward / n_steps, cfg)
        fields = (VectorField(grid, rng.random((grid.n_cells, m)).astype(complex))
                  for _ in range(n_random))
        worst = np.inf
        for traj in step.run_many(fields, n_steps, norm_ps=()):
            worst = min(worst, float(traj.final.values.real.min()))
        return PropertyCheckResult(
            name="positivity",
            passed=bool(worst >= -_POSITIVITY_FLOOR),
            measured={"min_value": worst, "offdiag_min": problem.report.offdiag_min},
            tolerance=_POSITIVITY_FLOOR,
            notes="nonnegative inputs stay nonnegative (off-diagonal coupling >= 0)",
        )

    # Converse: locate the most negative off-diagonal entry.
    vals = problem.V.values.real.copy()
    for i in range(m):
        vals[:, i, i] = np.inf
    cell, k, l = np.unravel_index(np.argmin(vals), vals.shape)
    entry = problem.V.values.real[cell, k, l]
    if abs(entry) < 1e-8:
        raise ValueError("inconclusive: off-diagonal entry too small to excite")
    h = grid.spacing
    t_small = 4.0 * h * h
    cfg = SplitConfig(scheme="lie", substep="backward_euler", n_steps=4, t_final=t_small)
    fvals = np.zeros((grid.n_cells, m), dtype=complex)
    fvals[cell, l] = 1.0
    out = trotter_evolve(problem.diffusion, problem.V, VectorField(grid, fvals), cfg, norm_ps=()).final
    dip = float(out.values.real[:, k].min())
    return PropertyCheckResult(
        name="positivity",
        passed=bool(dip < -_POSITIVITY_FLOOR),
        measured={
            "component_dip": dip,
            "offending_entry": float(entry),
            "t_small": t_small,
        },
        tolerance=_POSITIVITY_FLOOR,
        notes="negative off-diagonal coupling breaks the positive minimum principle",
    )


def _finals_at(horizons, g: VectorField, build) -> list:
    """Final values of g run to each (t, n) horizon, in the order given.

    The horizons are grouped by step size t / n, and build(tau) makes each
    group's step once, in order of first appearance, after the old step is
    dropped.  A group is one run continued from horizon to horizon in
    increasing n, so it takes its largest n steps; each final state equals
    that of a separate run from g, bit for bit.
    """
    groups = {}
    for i, (t, n) in enumerate(horizons):
        groups.setdefault(t / n, []).append(i)
    finals = [None] * len(horizons)
    for tau, members in groups.items():
        step = None
        step = build(tau)
        state, done = g, 0
        for i in sorted(members, key=lambda i: horizons[i][1]):
            n = horizons[i][1]
            if n > done:
                state, done = step.run(state, n - done, norm_ps=()).final, n
            finals[i] = state.values
    return finals


@_takes("domination", ts=_entries(1, _ALL_POSITIVE))
def run_domination_check(problem: Problem, *, ts=(0.1, 0.5, 1.0)) -> PropertyCheckResult:
    """Pointwise |S(t) f|^2 <= T(t) |f|^2 for a real bump f.

    Both evolutions use matched backward Euler step grids; the identity
    shift in the vector generator only strengthens the inequality.  Every
    vector run comes first, then every scalar run.  Horizons that share a
    step size share one step and one run, continued from each horizon to the
    next (the default ts take 200 steps, not 20 + 100 + 200), and one LU
    factor is held at a time.
    """
    f = _bump_pair(problem)
    sq0 = VectorField(f.grid, (np.abs(f.values) ** 2).sum(axis=1).astype(complex)[:, None])

    horizons = [(t, max(20, int(math.ceil(t / 5e-3)))) for t in ts]
    cfg = SplitConfig(substep="backward_euler")
    us = _finals_at(horizons, f, partial(split_step, problem.diffusion, problem.V, cfg=cfg))
    ws = _finals_at(horizons, sq0, partial(heat_step, problem.Q, cfg=cfg))

    measured = {}
    ok = True
    for (t, _), u, w in zip(horizons, us, ws):
        usq = (np.abs(u) ** 2).sum(axis=1)
        wvals = w[:, 0].real
        excess = float(np.max(usq - wvals) / max(wvals.max(), 1e-300))
        measured[f"excess_t{t:g}"] = excess
        ok = ok and excess <= _SLACK
    return PropertyCheckResult(
        name="domination",
        passed=bool(ok),
        measured=measured,
        tolerance=_SLACK,
        notes="squared amplitude of the coupled flow stays below the scalar flow",
    )


@_takes("ultracontractivity", n_points=_Domain(int, "must be at least 2", lambda v: v >= 2))
def run_ultracontractivity_check(problem: Problem, *, n_points: int = 5) -> PropertyCheckResult:
    """Least-squares slope of log sup |K(t)| against log t, K the centre
    cell's component-0 kernel column, on a geometric t-window with
    h^2 << t << R^2/16; the smoothing exponent must match -d/2 within
    _SMOOTHING_TOL.  The intercept is the measured log of the smoothing
    constant.  Raises with a sizing hint when the window is empty for the
    grid."""
    grid = problem.grid
    h = grid.spacing
    ratio = 2.0 if grid.dim == 1 else math.sqrt(2.0)
    t_min = 25.0 * h * h
    t_max_box = (grid.extent / 4.0) ** 2 / max(problem.report.eta2, 1e-300)
    t_values = t_min * ratio ** np.arange(n_points)
    if t_values[-1] > t_max_box:
        raise ValueError(
            f"empty smoothing window: need 25 h^2 * {ratio:.2f}^{n_points - 1} <= (R/4)^2/eta2 "
            f"= {t_max_box:.3e}; refine the grid (h = {h:.3e}) or enlarge R"
        )
    sups = kernel_sweep(problem.diffusion, problem.V, t_values, grid.center_cell(), 0,
                        16 if grid.dim == 1 else 12)
    slope, intercept = np.polyfit(np.log(t_values), np.log(sups), 1)
    return PropertyCheckResult(
        name="ultracontractivity",
        passed=bool(abs(slope + grid.dim / 2.0) <= _SMOOTHING_TOL),
        measured={"slope": float(slope), "log_M": float(intercept), "M": float(np.exp(intercept))},
        tolerance=_SMOOTHING_TOL,
        notes="kernel sup decays like t^(-d/2) on the resolved window",
    )


@_takes("trotter_order", t=_POSITIVE, n_schedule=_schedule(1))
def run_trotter_order_check(
    problem: Problem,
    *,
    t: float = 0.5,
    n_schedule=(8, 16, 32, 64),
) -> PropertyCheckResult:
    """Empirical splitting orders against the sparse exponential oracle.

    A constant potential commutes with the diffusion, so there is no
    splitting error to measure; that case is rejected as inconclusive.
    """
    if problem.V.is_constant:
        raise ValueError("inconclusive: a constant potential commutes with the diffusion, "
                         "so there is no splitting error to measure")
    f = _bump_pair(problem)
    ref = expm_apply(problem.generator, t, f)

    measured = {}
    ok = True
    for scheme, window in _ORDER_WINDOWS.items():
        errs = []
        for n in n_schedule:
            cfg = SplitConfig(scheme=scheme, substep="crank_nicolson", n_steps=n, t_final=t)
            out = trotter_evolve(problem.diffusion, problem.V, f, cfg, norm_ps=()).final
            errs.append(lp_norm(out - ref, 2))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        for i, n in enumerate(n_schedule):
            measured[f"{scheme}_err_n{n}"] = float(errs[i])
        for i, o in enumerate(orders):
            measured[f"{scheme}_order_{i}"] = float(o)
        ok = ok and all(window[0] <= o <= window[1] for o in orders)
    return PropertyCheckResult(
        name="trotter_order",
        passed=bool(ok),
        measured=measured,
        tolerance=0.0,
        notes="error vs the exact exponential scales at order ~1 (lie) / ~2 (strang), windows "
        f"{_ORDER_WINDOWS['lie']} and {_ORDER_WINDOWS['strang']}",
    )


@_takes("nongeneration", lam=_POSITIVE,
        extents=_entries(2, _Domain(_ALL_POSITIVE, "must be strictly increasing", _increasing)),
        h_target=_POSITIVE)
def run_nongeneration_demo(
    *,
    lam: float = 1.0,
    extents=(50.0, 100.0, 200.0),
    h_target: float = 0.125,
) -> PropertyCheckResult:
    """Triangular-potential counterexample: the resolvent leaves every L^p.

    (i) the closed-form tail obeys x u2(x) -> 1/lam (exponential-integral anchor);
    (ii) the discrete solves blow up under domain growth: ||u1||_2 is
    strictly increasing in R with positive log-log slope.
    """
    anchor = 1e3 * u2_closed_form(1e3, lam)
    anchor_ok = abs(anchor * lam - 1.0) <= _ANCHOR_TOL

    cells = [_box_cells(R, h_target) for R in extents]
    norms = []
    for R, n in zip(extents, cells):
        grid = build_grid(1, R, n)
        Q = sample_field(make_rule("identity_Q", 1)[0], grid, "diffusion")
        D = SparseOperator(assemble_scalar_diffusion(Q, grid), grid, 1)
        V = sample_field(make_rule("upper_triangular_V", 1)[0], grid, "potential")
        L = D.on_components(2) + assemble_potential(V, 2)
        x = grid.axis_coords
        rhs = np.zeros((grid.n_cells, 2), dtype=complex)
        rhs[:, 1] = np.where(x >= 1.0, 1.0 / np.maximum(x, 1.0), 0.0)
        u = solve_resolvent(L, lam, VectorField(grid, rhs))
        norms.append(
            float(np.sqrt(np.sum(np.abs(u.values[:, 0]) ** 2) * grid.cell_measure))
        )
    slope = float(np.polyfit(np.log(extents), np.log(norms), 1)[0])
    increasing = bool(np.all(np.diff(norms) > 0))

    measured = {"anchor_x_u2": float(anchor), "target": 1.0 / lam, "slope_u1_vs_R": slope}
    for R, n1 in zip(extents, norms):
        measured[f"u1_norm_R{R:g}"] = n1
    return PropertyCheckResult(
        name="nongeneration",
        passed=bool(anchor_ok and increasing and slope > 0),
        measured=measured,
        tolerance=_ANCHOR_TOL,
        notes="x u2(x) reaches 1/lam while ||u1|| diverges with the domain",
    )


@_takes("shift_invariance", mu=_RESOLVENT_POINT,
        sigmas=_entries(1, _Domain((float,), _RESOLVENT_POINT.says,
                                   lambda v: all(map(_RESOLVENT_POINT.test, v)))), extent=_POSITIVE,
        n_per_axis=_cells(1))
def run_shift_invariance_check(
    *,
    mu: float = 1.0,
    sigmas=(1.0, 2.0, 5.0),
    extent: float = 40.0,
    n_per_axis: int = 1600,
    operator: str = "imaginary",
) -> PropertyCheckResult:
    """Resolvent norm constancy along a vertical line for Delta - i x.

    Translating the generator shifts its spectrum by i sigma, so the
    resolvent norm cannot decay along mu - i sigma: that constancy rules out
    the 1/|lambda| sectorial decay an analytic semigroup would force.  The
    'absolute_control' operator (Delta - |x|, self-adjoint) is the designed
    negative control whose norm does decay.
    """
    grid = build_grid(1, extent, n_per_axis)
    if max(abs(s) for s in sigmas) > extent / 8.0:
        raise ValueError("sigma values must stay below R/8 (translation must stay in the box)")
    Q = sample_field(make_rule("identity_Q", 1)[0], grid, "diffusion")
    D = assemble_scalar_diffusion(Q, grid)
    x = grid.axis_coords
    if operator == "imaginary":
        B = SparseOperator((D - sp.diags(1j * x)).tocsr(), grid, 1)
        lam_of = lambda s: mu - 1j * s
    elif operator == "absolute_control":
        B = SparseOperator((D - sp.diags(np.abs(x))).tocsr(), grid, 1)
        lam_of = lambda s: mu + 1j * s
    else:
        raise ValueError(f"unknown operator {operator!r}")

    base = resolvent_norm(B, lam_of(0.0))
    measured = {"norm_sigma0": float(base)}
    ok = True
    for s in sigmas:
        ratio = resolvent_norm(B, lam_of(s)) / base
        measured[f"ratio_sigma{s:g}"] = float(ratio)
        ok = ok and abs(ratio - 1.0) <= _SHIFT_TOL
    return PropertyCheckResult(
        name="shift_invariance" if operator == "imaginary" else "shift_invariance_control",
        passed=bool(ok),
        measured=measured,
        tolerance=_SHIFT_TOL,
        notes="constant resolvent norm along a vertical line is incompatible with sectorial 1/|lambda| decay",
    )


@_takes("degenerate_kernel", t=_POSITIVE, n_steps=_AT_LEAST_ONE)
def run_degenerate_kernel_check(
    problem: Problem,
    *,
    t: float = 0.2,
    n_steps: int = 200,
) -> PropertyCheckResult:
    """On the diagonal subspace the degenerate coupling acts trivially:
    S(t)(f, f) equals (T(t)f, T(t)f) after un-rescaling the identity shift,
    while a generic input (f, 0) must leave the subspace (f: a bump at x = 1).

    The problem must be such a coupling: m = 2 and V(x)(1, 1) = -shift (1, 1)
    at every cell, to rounding; any other is rejected as inconclusive.
    """
    if problem.m != 2:
        raise ValueError(f"inconclusive: the degenerate coupling needs m = 2, got m = {problem.m}")
    V = problem.V
    miss = float(np.max(np.abs(V.values.sum(axis=2) + V.shift)))
    if not miss <= 1e-12 * (1.0 + float(np.max(np.abs(V.values)))):
        raise ValueError("inconclusive: the degenerate coupling needs V(x)(1, 1) = -shift (1, 1) "
                         f"at every cell; V misses it by {miss:.3g}")
    rate = problem.unrescale_rate  # the -I of the diffusion block and the shift
    if t * rate > math.log(sys.float_info.max):
        raise ValueError(f"t = {t!r} overflows the rescale e^(t * {rate:g}); "
                         f"t must be at most {math.log(sys.float_info.max) / rate:.6g} for this problem")
    grid = problem.grid
    profile = _bump(grid, 1.0).astype(complex)
    cfg = SplitConfig(substep="crank_nicolson")
    wref = heat_step(problem.Q, t / n_steps, cfg).run(
        VectorField(grid, profile[:, None]), n_steps, norm_ps=()).final.values[:, 0]
    wnorm = max(np.linalg.norm(wref), 1e-300)

    step = split_step(problem.diffusion, problem.V, t / n_steps, cfg)
    diag0 = VectorField(grid, np.column_stack([profile, profile]))
    gen0 = VectorField(grid, np.column_stack([profile, 0.0 * profile]))
    ud, ug = (traj.final for traj in step.run_many([diag0, gen0], n_steps, norm_ps=()))
    scale = math.exp(t * rate)
    match_errs = [
        float(np.linalg.norm(scale * ud.values[:, i] - wref) / wnorm) for i in range(2)
    ]
    mismatch = float(np.linalg.norm(scale * ug.values[:, 0] - wref) / wnorm)

    passed = max(match_errs) <= _MATCH_TOL and mismatch > 0.1
    return PropertyCheckResult(
        name="degenerate_kernel",
        passed=bool(passed),
        measured={
            "match_err_comp0": match_errs[0],
            "match_err_comp1": match_errs[1],
            "generic_mismatch": mismatch,
        },
        tolerance=_MATCH_TOL,
        notes="diagonal data factorizes through the scalar flow; generic data does not",
    )


@_takes("commutator", extent=_POSITIVE, n_schedule=_cells(2, _schedule(3)))
def run_commutator_rate_check(
    *,
    extent: float = 10.0,
    n_schedule=(200, 400),
) -> PropertyCheckResult:
    """Defect of the commutator identity halves when N doubles (first-order
    consistency of the discretized right-hand side)."""
    defects = []
    for n in n_schedule:
        grid = build_grid(1, extent, n)
        x = grid.axis_coords
        Q = sample_field(make_rule("identity_Q", 1)[0], grid, "diffusion")
        vals = np.zeros((grid.n_cells, 2, 2))
        vals[:, 0, 0] = np.sin(x)
        vals[:, 1, 1] = np.cos(x)
        M = MatrixField(grid, "potential", vals)
        with np.errstate(over="ignore"):  # a far cell's x^2 = inf: exp(-inf) is its 0
            fvals = np.column_stack([np.exp(-(x**2)), np.exp(-((x - 1.0) ** 2) / 2.0)])
        f = VectorField(grid, fvals.astype(complex))
        defects.append(commutator_defect(Q, M, f))
    if not all(0.0 < d < math.inf for d in defects):  # a zero defect leaves no ratio
        raise ValueError(f"extent = {extent!r} gives a commutator defect that is zero or not "
                         f"finite: {[float(d) for d in defects]}")
    ratios = [defects[i] / defects[i + 1] for i in range(len(defects) - 1)]
    ok = all(_RATIO_WINDOW[0] <= r <= _RATIO_WINDOW[1] for r in ratios)
    measured = {f"defect_N{n}": float(d) for n, d in zip(n_schedule, defects)}
    for i, r in enumerate(ratios):
        measured[f"ratio_{i}"] = float(r)
    return PropertyCheckResult(
        name="commutator",
        passed=bool(ok),
        measured=measured,
        tolerance=0.0,
        notes=f"defect ratio under N doubling inside {_RATIO_WINDOW}",
    )


def _real_part_levels(eigenvalues):
    """The top _N_LEVELS distinct real-part levels; conjugate pairs collapse."""
    levels = []
    for r in sorted((e.real for e in eigenvalues), reverse=True):
        if not levels or abs(levels[-1] - r) > 1e-6 * (1.0 + abs(r)):
            levels.append(r)
    return levels[:_N_LEVELS]


@_takes("compactness", h_target=_POSITIVE, extent=_POSITIVE)
def run_compactness_contrast(*, h_target: float = 0.05, extent: float = 10.0) -> PropertyCheckResult:
    """Spacing of the top eigenvalue levels under domain doubling.

    The coercive rotation potential pins the low spectrum (spacing stable as
    R doubles); the degenerate potential leaves a free direction whose
    spectrum densifies like the Dirichlet box, so its spacing collapses.
    """
    cells = {R: _box_cells(R, h_target) for R in (extent, 2.0 * extent)}
    k_max = max_eigenpairs(2 * cells[extent])
    if _N_EIGENPAIRS > k_max:
        raise ValueError(f"h_target = {h_target!r} puts {cells[extent]} cells on the box of "
                         f"R = {extent:g}, too few for the {_N_EIGENPAIRS} eigenpairs the contrast "
                         f"takes (at most {k_max})")
    spacings = {}
    for name, v_rule, v_params, do_shift in (
        ("rotation", "rotation_V", {"r": 1.5}, True),
        ("degenerate", "degenerate_V", {}, False),
    ):
        per_R = []
        for R, n in cells.items():
            problem = build_problem(
                1, R, n, 2, v_rule=v_rule, v_params=v_params,
                shift="auto" if do_shift else "none",
                alpha=0.45 if do_shift else 0.0,
            )
            res = eigenpairs(problem.generator, k=_N_EIGENPAIRS, shift=0.0)
            levels = _real_part_levels(res.eigenvalues)
            if len(levels) < _N_LEVELS:
                raise SolverError(
                    f"only {len(levels)} distinct levels for {name} at R={R}"
                )
            per_R.append(float(levels[0] - levels[-1]) / (len(levels) - 1))
        spacings[name] = per_R

    rot_ratio = spacings["rotation"][0] / spacings["rotation"][1]
    deg_ratio = spacings["degenerate"][0] / spacings["degenerate"][1]
    passed = abs(rot_ratio - 1.0) <= _STABILITY_TOL and deg_ratio >= 3.0
    return PropertyCheckResult(
        name="compactness",
        passed=bool(passed),
        measured={
            "rotation_spacing_R": spacings["rotation"][0],
            "rotation_spacing_2R": spacings["rotation"][1],
            "rotation_ratio": float(rot_ratio),
            "degenerate_spacing_R": spacings["degenerate"][0],
            "degenerate_spacing_2R": spacings["degenerate"][1],
            "degenerate_ratio": float(deg_ratio),
        },
        tolerance=_STABILITY_TOL,
        notes="level spacing stable for the coercive coupling, collapsing ~R^-2 for the degenerate one",
    )
