"""Semigroup evolution by operator splitting.

One Lie step over tau applies the multiplication semigroup e^{tau V(x)}
cell by cell and then one implicit diffusion substep; a Strang step wraps the
diffusion substep with two half potential steps.  Repeating n times realizes
the product (e^{tA/n} e^{tV/n})^n whose limit is the semigroup generated by
A + V.

Backward Euler is the structural substep: with diagonal Q its step matrix is
an inverse M-matrix, which makes positivity and the per-p contraction hold
exactly on the grid, not asymptotically.  Crank-Nicolson is the accuracy
substep (second order, but only a 2-norm contraction).

Diffusion substeps are direct solves, no iteration: the diffusion acts as
the scalar block D on each of the m components (kron(D, I_m) in the
cell-major layout), so a step takes D itself, SuperLU's sparse LU (Demmel et
al., SIAM J. Matrix Anal. Appl. 20(3), 1999) factors its step matrix
I - tau D, and the m components are solved as right-hand-side columns.
Columns that are exactly zero are not solved (a decoupled potential keeps an
unexcited component at zero), and every solve is checked against a residual
bound relative to the step input.  The potential is exponentiated once per
step size and distinct cell matrix, not once per cell.

Building a step is separate from stepping, and there is one way to do
each: split_step (or heat_step, for the scalar comparison equation) builds a
SplitStep, which holds the e^{tau V} cache and the LU factor for one step
size, and its run() evolves any number of fields with them.  trotter_evolve
builds one step per call; a check that evolves many fields, or several
horizons at one step size, builds one per check and step size.  Nothing is
cached across calls, so a caller that drops a step before building the next
holds one factor at a time.

Real coefficients commute with complex conjugation, so real data under a real
potential stays real: such runs step a float64 array and solve m real
columns.  Complex data, or a complex potential, steps a complex128 array
whose float64 view holds 2m columns.  Either way the loop is the same and
the returned fields are complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from vschro.fields import MatrixField, matrix_exp
from vschro.mesh import Grid, VectorField, values_lp_norms
from vschro.operators import SparseOperator, assemble_scalar_diffusion

__all__ = [
    "SplitConfig",
    "Trajectory",
    "SolverError",
    "SplitStep",
    "split_step",
    "heat_step",
    "trotter_evolve",
]

DEFAULT_NORM_PS = (1, 2, 4, math.inf)


class SolverError(RuntimeError):
    """A matrix could not be factored, a solve missed its residual bound, or
    an iteration on the factor (ARPACK) failed."""


@dataclass(frozen=True)
class SplitConfig:
    scheme: str = "lie"  # "lie" | "strang"
    substep: str = "backward_euler"  # "backward_euler" | "crank_nicolson"
    n_steps: int = 1
    t_final: float = 1.0
    solver_tol: float = 1e-10  # post-solve residual bound, relative to the step input

    def __post_init__(self):
        if self.scheme not in ("lie", "strang"):
            raise ValueError(f"scheme must be 'lie' or 'strang', got {self.scheme!r}")
        if self.substep not in ("backward_euler", "crank_nicolson"):
            raise ValueError(f"substep must be 'backward_euler' or 'crank_nicolson', "
                             f"got {self.substep!r}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps!r}")
        if not self.t_final > 0:
            raise ValueError(f"t_final must be positive, got {self.t_final!r}")
        if not 0.0 < self.solver_tol <= 1e-4:
            raise ValueError(f"solver_tol must lie in (0, 1e-4], got {self.solver_tol!r}")


@dataclass
class Trajectory:
    """Observation record of one evolution run.

    times covers every step boundary (starting at 0); norm_log maps p to the
    per-time norms; snapshots are stored at snapshot_times only.
    """

    times: np.ndarray
    norm_log: dict = field(repr=False)
    snapshot_times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.size and (t[0] != 0.0 or np.any(np.diff(t) <= 0)):
            raise ValueError("times must start at 0 and increase strictly")
        object.__setattr__(self, "times", t)

    @property
    def final(self) -> VectorField:
        return self.snapshots[-1]


class _PotentialStepper:
    """Cell-wise application of e^{tau V(x)}, cached for a fixed tau."""

    def __init__(self, V: MatrixField, tau: float):
        # stored column-major, (j, cell, i): each term of the sum over j reads
        # one contiguous (n_cells, m) slab.  Each distinct cell matrix is
        # exponentiated once and gathered to its cells: broadcasting a
        # constant V's (1, m) rows in apply measured twice as slow as
        # reading full slabs.
        first, inverse = V.distinct
        self.expm = np.take(matrix_exp(tau * V.values[first]).transpose(2, 0, 1), inverse, axis=1)

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = self.expm[0] * values[:, :1]
        for j in range(1, len(self.expm)):
            out += self.expm[j] * values[:, j:j + 1]
        return out


def sparse_lu(matrix: sp.spmatrix):
    """SuperLU factorization with minimum-degree ordering on A^T + A and the
    smallest supernodes (relax, panel_size): on these stencils the least
    fill, the least LU memory in 2D and the fastest solves measured.  A
    singular or too large matrix raises SolverError."""
    try:
        return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
    except (RuntimeError, MemoryError) as exc:
        raise SolverError(f"LU of the {matrix.shape[0]}-row matrix failed: {exc!r}") from exc


def checked_solve(lu, matrix: sp.spmatrix, b: np.ndarray, bound: float) -> np.ndarray:
    """x with matrix @ x = b, from the factor lu of matrix, for a vector or
    columns b, refused with SolverError unless ||matrix @ x - b|| <= bound.
    A real factor solves complex b through its float64 view, as twice the
    columns.  Columns that are exactly zero solve to exact zeros, so they are
    left unsolved (an unexcited component, the imaginary part of real data)."""
    split = np.iscomplexobj(b) and not np.iscomplexobj(matrix)
    cols = (b.view(np.float64) if split else b).reshape(len(b), -1)
    # a row with no zero proves every column live (tested on a list: a numpy
    # call costs more on small grids); else the per-column tests, which beat
    # one reduction over axis 0 tenfold on large grids
    live = range(cols.shape[1]) if all(cols[0].tolist()) else [
        j for j in range(cols.shape[1]) if cols[:, j].any()]
    rhs = cols if len(live) == cols.shape[1] else cols[:, live]
    # SuperLU returns Fortran-ordered columns: one copy to C order here
    # serves the residual's product and the return
    x = np.ascontiguousarray(lu.solve(rhs)) if live else rhs
    r = matrix @ x
    r -= rhs
    resid = np.linalg.norm(r)
    if not resid <= bound:
        raise SolverError(f"solve residual {resid:.3e} above {bound:.3e}")
    if rhs is not cols:
        full = np.zeros(cols.shape, cols.dtype)
        full[:, live] = x
        x = full
    return (x.view(b.dtype) if split else x).reshape(b.shape)


class _DiffusionStepper:
    """One implicit substep u -> step(tau A) u for A = kron(D, I_m).

    The scalar block I - tau D (Crank-Nicolson: I - tau/2 D, applied after
    I + tau/2 D) is factored once; checked_solve solves the (n_cells, m)
    field as right-hand-side columns, so the factor stays real.
    """

    def __init__(self, D: sp.csr_matrix, tau: float, cfg: SplitConfig):
        self.tol = cfg.solver_tol
        crank = cfg.substep == "crank_nicolson"
        theta = 0.5 * tau if crank else tau
        ident = sp.identity(D.shape[0], format="csr")
        self.lhs = (ident - theta * D).tocsc()
        self.rhs_mat = (ident + theta * D).tocsr() if crank else None
        self.lu = sparse_lu(self.lhs)

    def apply(self, values: np.ndarray) -> np.ndarray:
        rhs = values if self.rhs_mat is None else (
            self.rhs_mat @ values.view(np.float64)).view(values.dtype)
        return checked_solve(self.lu, self.lhs, rhs, self.tol * np.linalg.norm(values))


def _state(f: VectorField, real_coefficients: bool = True) -> np.ndarray:
    """The array a run steps: float64 for real data under real
    coefficients, else the complex values."""
    return np.ascontiguousarray(f.values.real) if real_coefficients and f.is_real else f.values


@dataclass(frozen=True)
class SplitStep:
    """One split step of size tau, built once and stepped any number of times.

    Building holds the costly parts: the cell-wise e^{tau V} cache and the
    SuperLU factor of the step matrix of the scalar diffusion block D.
    run() only steps, so a check that evolves many fields, or several
    horizons at one tau, factors once.  Every solve of every run is still
    checked against its residual bound.
    """

    grid: Grid
    m: int
    tau: float
    substeps: tuple = field(repr=False)
    real_coefficients: bool = True

    def run(self, f: VectorField, n_steps: int, norm_ps=DEFAULT_NORM_PS,
            snapshot_stride: int = 0) -> Trajectory:
        """n_steps steps from f.

        Norms are logged at every step boundary, from one pass over the cell
        amplitudes per step; snapshots at every snapshot_stride-th step
        (0 = endpoints only).  The initial state and the final state are
        always stored.
        """
        if f.grid != self.grid or f.components != self.m:
            raise ValueError("field does not match the step's grid and components")
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        u = _state(f, self.real_coefficients)
        measure = f.grid.cell_measure
        times = [0.0]
        norm_rows = [values_lp_norms(u, norm_ps, measure)]
        snapshot_times, snapshots = [0.0], [f]
        for k in range(1, n_steps + 1):
            for op in self.substeps:
                u = op(u)
            t = k * self.tau
            times.append(t)
            norm_rows.append(values_lp_norms(u, norm_ps, measure))
            if (snapshot_stride and k % snapshot_stride == 0) or k == n_steps:
                snapshot_times.append(t)
                snapshots.append(VectorField(f.grid, u))
        return Trajectory(
            times=np.array(times),
            norm_log={p: np.array(col) for p, col in zip(norm_ps, zip(*norm_rows))},
            snapshot_times=snapshot_times,
            snapshots=snapshots,
        )


def split_step(D: SparseOperator, V: MatrixField, tau: float, cfg: SplitConfig) -> SplitStep:
    """The Lie or Strang step of size tau for kron(D, I_m) + V (scheme,
    substep and residual bound from cfg; its n_steps and t_final are not
    read).  D is the scalar diffusion block (m = 1, as Problem.diffusion
    holds it); m is the potential's.

    Lie: diffusion(tau) o potential(tau); Strang: half potential steps
    around a full diffusion step.
    """
    if D.m != 1 or V.grid != D.grid:
        raise ValueError("split_step takes the scalar diffusion block (m = 1) on V's grid")
    # the potential exponentials go first, so their transient batch memory is
    # freed before the LU factor is allocated
    pot = _PotentialStepper(V, tau if cfg.scheme == "lie" else 0.5 * tau)
    diff = _DiffusionStepper(D.matrix, tau, cfg)
    if cfg.scheme == "lie":
        substeps = (pot.apply, diff.apply)
    else:
        substeps = (pot.apply, diff.apply, pot.apply)
    return SplitStep(D.grid, V.rows, tau, substeps, real_coefficients=np.isrealobj(V.values))


def heat_step(Q: MatrixField, tau: float, cfg: SplitConfig) -> SplitStep:
    """The step of size tau of w_t = div(Q grad w), with cfg's substep and
    residual bound; unshifted, as the semigroup that dominates |S(t)f|^2."""
    D = assemble_scalar_diffusion(Q, Q.grid)
    return SplitStep(Q.grid, 1, tau, (_DiffusionStepper(D, tau, cfg).apply,))


def trotter_evolve(
    D: SparseOperator,
    V: MatrixField,
    f: VectorField,
    cfg: SplitConfig,
    norm_ps=DEFAULT_NORM_PS,
    snapshot_stride: int = 0,
) -> Trajectory:
    """Split evolution to cfg.t_final in cfg.n_steps steps: the step of
    split_step, built for this call, run as SplitStep.run describes."""
    step = split_step(D, V, cfg.t_final / cfg.n_steps, cfg)
    return step.run(f, cfg.n_steps, norm_ps, snapshot_stride)

