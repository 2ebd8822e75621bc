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
unexcited component at zero), and every solve is checked for its normwise
backward error (checked_solve).  The potential is exponentiated once per
step size and distinct cell matrix, not once per cell.

A run steps a block of fields held component-major, shape (fields, m,
n_cells): one contiguous row per field and component, so the block's
transpose is the Fortran-ordered column block SuperLU solves, and every
field's components are right-hand-side columns of one solve.  A block holds
at most _BLOCK_COLUMNS float64 columns (m per real field, 2m per complex
one), and never fewer than one field; each field's solve is checked on its
own.  On a 1D grid a block's trajectories equal the one-field runs bit for
bit; on a 2D grid they agree to rounding, since SuperLU may sum a supernode
of several columns in another order for several right-hand sides than for
one.

Building a step is separate from stepping, and there is one way to do
each: split_step (or heat_step, for the scalar comparison equation) builds a
SplitStep, which holds the e^{tau V} cache and the LU factor for one step
size, and its run_many() evolves any number of fields with them, in blocks
(run() is a block of one).  trotter_evolve builds one step per call; a check
that evolves many fields, or several horizons at one step size, builds one
per check and step size.  Nothing is cached across calls, so a caller that
drops a step before building the next holds one factor at a time.

Real coefficients commute with complex conjugation, so real data under a real
potential stays real: such runs step a float64 block and solve m real
columns per field.  Complex data, or a complex potential, steps a complex128
block whose real and imaginary parts are 2m float64 columns per field.
Either way the loop is the same and the returned fields are complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from vschro.fields import MatrixField, matrix_exp
from vschro.mesh import Grid, VectorField, values_lp_norms
from vschro.operators import SparseOperator, assemble_scalar_diffusion, scaled_shift

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
# float64 right-hand-side columns per block: SuperLU reads its whole factor
# once per solve, and checked_solve's cost per column at 1, 2, 4, 8, 16 and
# 32 columns measured 83/45/29/23/24/28 us at 2000 cells, 778/456/351/324/
# 402/463 us at 96^2, 1523/886/704/658/783/865 us at 128^2 and 11.7/8.3/6.8/
# 6.6/8.0/8.7 ms at 320^2: lowest at 8 columns on every grid
_BLOCK_COLUMNS = 8
# normwise backward-error tolerance of every checked solve, 10 eps: honest
# solves measured at most 5.4e-16, corrupted factors at least 3.6e-10
_BACKWARD_TOL = 2.2e-15
# lines of a sparse matrix whose |a_ij| matrix_norm takes at once
_NORM_LINES = 8192


class SolverError(RuntimeError):
    """A matrix could not be factored, a solve missed the backward-error
    rule of checked_solve, or an iteration on the factor (ARPACK) failed."""


@dataclass(frozen=True)
class SplitConfig:
    scheme: str = "lie"  # "lie" | "strang"
    substep: str = "backward_euler"  # "backward_euler" | "crank_nicolson"
    n_steps: int = 1
    t_final: float = 1.0

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

    @property
    def final(self) -> VectorField:
        return self.snapshots[-1]


class _PotentialStepper:
    """Cell-wise application of e^{tau V(x)} to a block, cached for a fixed tau."""

    def __init__(self, V: MatrixField, tau: float):
        # stored as (j, i, cell) rows: each term of the sum over j is one
        # multiply-add of an (m, n_cells) slab over every field of a block,
        # on contiguous rows.  Each distinct cell matrix is exponentiated
        # once and gathered to its cells: in the cell-major layout,
        # broadcasting a constant V's rows measured twice as slow as
        # reading full slabs.
        first, inverse = V.distinct
        self.expm = np.take(matrix_exp(tau * V.values[first]).transpose(2, 1, 0), inverse, axis=2)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """e^{tau V} on each field of the (fields, m, n_cells) block u."""
        out = self.expm[0] * u[:, :1]
        for j in range(1, len(self.expm)):
            out += self.expm[j] * u[:, j:j + 1]
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


def _real_rows(b: np.ndarray) -> np.ndarray:
    """Complex rows as float64 rows: Re b_0, Im b_0, Re b_1, ..."""
    return np.stack((b.real, b.imag), axis=1).reshape(-1, b.shape[-1])


def _complex_rows(x: np.ndarray) -> np.ndarray:
    """The inverse of _real_rows."""
    out = np.empty((len(x) // 2, x.shape[-1]), np.complex128)
    out.real, out.imag = x[0::2], x[1::2]
    return out


def matrix_norm(matrix: sp.spmatrix) -> float:
    """max(||A||_1, ||A||_inf) of a square CSR or CSC matrix, bit for bit
    |A| 1 and 1 |A| as sparse products sum them: each stored line's |a_ij|
    (a CSR row's, a CSC column's) added in order, and the other axis's
    accumulated in stored order.  |A| is taken _NORM_LINES lines at a time,
    not copied whole; taken before the factor is made."""
    n = matrix.shape[0]
    ptr, idx = matrix.indptr, matrix.indices
    top, across, ones = 0.0, np.zeros(n), np.ones(n)
    for start in range(0, n, _NORM_LINES):
        stop = min(start + _NORM_LINES, n)
        lo, hi = ptr[start], ptr[stop]
        part = np.abs(matrix.data[lo:hi])
        lines = sp.csr_matrix((part, idx[lo:hi], ptr[start:stop + 1] - lo), shape=(stop - start, n))
        top = max(top, (lines @ ones).max(initial=0.0))
        np.add.at(across, idx[lo:hi], part)
    return float(max(top, across.max(initial=0.0)))


def checked_solve(lu, matrix: sp.spmatrix, norm: float, rows: np.ndarray, fields: int) -> np.ndarray:
    """The rows x with matrix @ x = b for each row b of the (k, n) rows, from
    the factor lu of matrix, whose matrix_norm is norm; SolverError unless
    each of the fields equal groups of rows (a block's fields) has normwise
    backward error ||b - matrix @ x|| / (norm ||x||) <= _BACKWARD_TOL over its
    own rows (Higham, Accuracy and Stability of Numerical Algorithms, 7.1),
    a test that scales with ||A||, as a solve's rounding does.  An x that
    underflows may miss by 2^-1074 per entry, so the bound adds ||A|| times
    that; a field whose sums of squares leave [2^-900, 2^900] takes its norms
    from BLAS nrm2, which scales them (inside, the test is the same bit for bit).

    The rows' transpose is the column block SuperLU solves (Fortran-ordered,
    so copied as it is, when the rows are C-contiguous), and x is the
    transpose of the columns it returns, C-contiguous.  A real factor solves
    complex rows as float64 rows, twice as many.  Rows that are exactly zero
    solve to exact zeros, so they are left unsolved (an unexcited component,
    the imaginary part of real data)."""
    if rows.dtype.kind == "c" and matrix.dtype.kind != "c":
        return _complex_rows(checked_solve(lu, matrix, norm, _real_rows(rows), fields))
    # a cell with no zero proves every row live (tested on a list: a numpy
    # call costs more on small grids); else the per-row tests
    k = len(rows)
    live = range(k) if all(rows[:, 0].tolist()) else [j for j in range(k) if rows[j].any()]
    rhs = rows if len(live) == k else rows[live]
    x = lu.solve(rhs.T).T if live else rhs
    r = rhs - (matrix @ x.T).T
    per_field = k // fields
    r_sq, x_sq = [0.0] * fields, [0.0] * fields
    with np.errstate(over="ignore"):  # a sum that overflows is taken again below
        r_rows, x_rows = np.vecdot(r, r).real.tolist(), np.vecdot(x, x).real.tolist()
    for j, rr, xx in zip(live, r_rows, x_rows):
        r_sq[j // per_field] += rr
        x_sq[j // per_field] += xx
    under = norm * math.sqrt(per_field * x.shape[1]) * 2.0 ** -1074
    for f, (rr, xx) in enumerate(zip(r_sq, x_sq)):
        nr, nx = math.sqrt(rr), math.sqrt(xx)
        if not 2.0 ** -900 <= min(rr, xx) <= max(rr, xx) <= 2.0 ** 900:
            own = [i for i, j in enumerate(live) if j // per_field == f]
            nr, nx = (la.norm(a[own].ravel(), check_finite=False) for a in (r, x))
        if not nr <= (bound := _BACKWARD_TOL * norm * nx + under):
            raise SolverError(f"solve residual {nr:.3e} above {bound:.3e}")
    if rhs is not rows:
        full = np.zeros(rows.shape, rows.dtype)
        full[live] = x
        x = full
    return x


class _DiffusionStepper:
    """One implicit substep u -> step(tau A) u for A = kron(D, I_m).

    The scalar block I - tau D (Crank-Nicolson: I - tau/2 D, applied after
    I + tau/2 D) is factored once; checked_solve solves a block's rows as
    right-hand-side columns, so the factor stays real.  Each step matrix is
    one data array on D's own index arrays (operators.scaled_shift); D is
    symmetric bit for bit, so I - tau D is read as CSC as it stands.
    """

    def __init__(self, D: sp.csr_matrix, tau: float, cfg: SplitConfig):
        crank = cfg.substep == "crank_nicolson"
        theta = 0.5 * tau if crank else tau
        self.lhs = scaled_shift(D, 1.0, -theta).T
        self.rhs_mat = scaled_shift(D, 1.0, theta) if crank else None
        self.norm = matrix_norm(self.lhs)
        self.lu = sparse_lu(self.lhs)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The substep of each field of the (fields, m, n_cells) block u, each
        field's solve checked on its own."""
        rows = u.reshape(-1, u.shape[-1])
        if self.rhs_mat is not None:  # the explicit half acts on float64 rows
            split = u.dtype.kind == "c"
            rows = (self.rhs_mat @ (_real_rows(rows) if split else rows).T).T
            rows = _complex_rows(rows) if split else rows
        return checked_solve(self.lu, self.lhs, self.norm, rows, len(u)).reshape(u.shape)


@dataclass(frozen=True)
class SplitStep:
    """One split step of size tau, built once and stepped any number of times.

    Building holds the costly parts: the cell-wise e^{tau V} cache and the
    SuperLU factor of the step matrix of the scalar diffusion block D.
    run() only steps, so a check that evolves many fields, or several
    horizons at one tau, factors once.  Every solve of every run is still
    checked (checked_solve).
    """

    grid: Grid
    m: int
    tau: float
    substeps: tuple = field(repr=False)
    real_coefficients: bool = True

    def run(self, f: VectorField, n_steps: int, norm_ps=DEFAULT_NORM_PS,
            snapshot_stride: int = 0) -> Trajectory:
        """n_steps steps from f, as a block of one (see run_many)."""
        return next(self.run_many([f], n_steps, norm_ps, snapshot_stride))

    def run_many(self, fields, n_steps: int, norm_ps=DEFAULT_NORM_PS, snapshot_stride: int = 0):
        """The Trajectory of n_steps steps from each field of the iterable
        fields, yielded in order.

        Consecutive fields of one state dtype are stepped together as a
        block of at most _BLOCK_COLUMNS float64 right-hand-side columns
        (never fewer than one field), and fields are drawn from the iterable
        one block at a time.  Each trajectory equals that of its field run
        alone, bit for bit on a 1D grid and to rounding on a 2D one, and
        each field's solves are checked on their own.

        Norms are logged at every step boundary, from one pass over the cell
        amplitudes per step; snapshots at every snapshot_stride-th step
        (0 = endpoints only).  The initial state and the final state are
        always stored.
        """
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        block, real = [], True
        for f in fields:
            if f.grid != self.grid or f.components != self.m:
                raise ValueError("field does not match the step's grid and components")
            f_real = self.real_coefficients and f.is_real
            if block and f_real != real:
                yield from self._run_block(block, real, n_steps, norm_ps, snapshot_stride)
                block = []
            block.append(f)
            real = f_real
            columns = self.m if real else 2 * self.m  # float64 columns per field
            if (len(block) + 1) * columns > _BLOCK_COLUMNS:  # full: step it before drawing more
                yield from self._run_block(block, real, n_steps, norm_ps, snapshot_stride)
                block = []
        if block:
            yield from self._run_block(block, real, n_steps, norm_ps, snapshot_stride)

    def _run_block(self, fields, real, n_steps, norm_ps, snapshot_stride):
        """run_many for one block: real fields step as float64 rows."""
        u = np.stack([(f.values.real if real else f.values).T for f in fields])
        measure = self.grid.cell_measure
        norm_rows = [[values_lp_norms(rows.T, norm_ps, measure) for rows in u]] if norm_ps else []
        snapshot_times, snapshots = [0.0], [fields]
        for k in range(1, n_steps + 1):
            for op in self.substeps:
                u = op(u)
            if norm_ps:
                norm_rows.append([values_lp_norms(rows.T, norm_ps, measure) for rows in u])
            if (snapshot_stride and k % snapshot_stride == 0) or k == n_steps:
                snapshot_times.append(k * self.tau)
                snapshots.append([_field(self.grid, rows) for rows in u])
        for i in range(len(fields)):
            yield Trajectory(
                times=np.arange(n_steps + 1) * self.tau,
                norm_log={p: np.array(col)
                          for p, col in zip(norm_ps, zip(*(row[i] for row in norm_rows)))},
                snapshot_times=list(snapshot_times),
                snapshots=[snaps[i] for snaps in snapshots],
            )


def _field(grid: Grid, rows: np.ndarray) -> VectorField:
    """The C-ordered complex field of one field's (m, n_cells) rows."""
    values = rows.T.astype(np.complex128, order="C")
    values.setflags(write=False)  # fresh, so VectorField need not copy it
    return VectorField(grid, values)


def split_step(D: SparseOperator, V: MatrixField, tau: float, cfg: SplitConfig) -> SplitStep:
    """The Lie or Strang step of size tau for kron(D, I_m) + V (scheme and
    substep from cfg; its n_steps and t_final are not read).  D is the
    scalar diffusion block (m = 1, as Problem.diffusion holds it); m is the
    potential's.

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
    """The step of size tau of w_t = div(Q grad w), with cfg's substep;
    unshifted, as the semigroup that dominates |S(t)f|^2."""
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

