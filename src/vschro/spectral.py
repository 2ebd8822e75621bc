"""Resolvent solves and norms, eigenpairs and kernel columns.

Resolvent systems (lam - L)u = f are factored and solved as the diffusion
substeps are (evolve.sparse_lu, evolve.checked_solve): each solve is checked
for its backward error, and a failed factorization, a missed residual (lam
close to the spectrum) or an ARPACK failure raises evolve.SolverError.
ARPACK (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998) does the
iterative work on that LU: implicitly restarted Lanczos on R^H R gives the
resolvent 2-norm ||R|| to rounding, and implicitly restarted Arnoldi in
shift-invert mode gives the eigenvalues near a shift, with residuals
measured on the original operator.  The arithmetic
follows the data, as in evolve: a real L at a real lam (zero imaginary part)
is factored in float64 and runs ARPACK's real drivers, where R is real; a
complex L or lam is complex throughout.  Complex right-hand sides and
returned eigenpairs stay complex either way.  Kernel columns
are read off by evolving scaled discrete deltas: on a fixed grid the
discrete kernel is literally the matrix of the evolution map, so
kernel_column returns the evolved field and kernel_sweep the sup norms along
one continued evolution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse.linalg as spla

from vschro.evolve import SolverError, SplitConfig, checked_solve, matrix_norm, sparse_lu, trotter_evolve
from vschro.fields import MatrixField
from vschro.mesh import VectorField
from vschro.operators import SparseOperator

__all__ = [
    "EigenResult",
    "solve_resolvent",
    "resolvent_norm",
    "eigenpairs",
    "max_eigenpairs",
    "kernel_column",
    "kernel_sweep",
]

_RESIDUAL_LIMIT = 1e-13  # times ||L||: measured eigenpairs reach at most 3.5e-16 ||L||


@dataclass
class EigenResult:
    """Eigenvalues sorted by real part (descending) with the residuals
    ||L v - lam v|| of their unit-norm eigenvectors."""

    eigenvalues: list
    residuals: list


def _real_if_real(lam: complex):
    """lam as a float when its imaginary part is zero, so that a real
    operator's shifted matrix, factor and ARPACK run stay real."""
    lam = complex(lam)
    return lam.real if lam.imag == 0 else lam


def _start_vector(seed: int, dim: int, dtype) -> np.ndarray:
    """ARPACK's seeded complex start vector; for a real run its real part,
    the first draw, alone."""
    rng = np.random.default_rng(seed)
    real = rng.standard_normal(dim)
    return real if dtype.kind == "f" else real + 1j * rng.standard_normal(dim)


def solve_resolvent(L: SparseOperator, lam: complex, rhs: VectorField) -> VectorField:
    """Solve (lam - L) u = rhs, checked by evolve.checked_solve."""
    if rhs.grid != L.grid or rhs.components != L.m:
        raise ValueError("rhs does not match operator layout")
    shifted = L.shifted(_real_if_real(lam))
    norm = matrix_norm(shifted)
    x = checked_solve(sparse_lu(shifted), shifted, norm, rhs.values.ravel()[None], 1)[0]
    return VectorField(rhs.grid, x.reshape(rhs.grid.n_cells, L.m))


def resolvent_norm(L: SparseOperator, lam: complex) -> float:
    """2-norm of R = (lam - L)^{-1}, exact to rounding.

    The square root of the top eigenvalue of R^H R, applied by solves with
    the LU of (lam - L) and its conjugate transpose, by ARPACK's implicitly
    restarted Lanczos (scipy.sparse.linalg.eigsh) to relative tolerance 1e-8
    from a seeded start vector, so the value is deterministic; for a real L
    at a real lam, real Lanczos on R^T R from the real part of that vector.
    An ARPACK failure raises SolverError.
    """
    shifted = L.shifted(_real_if_real(lam))
    lu = sparse_lu(shifted)
    dim = L.dims
    v0 = _start_vector(1234, dim, shifted.dtype)
    normal = spla.LinearOperator(
        (dim, dim), matvec=lambda v: lu.solve(lu.solve(v), trans="H"), dtype=shifted.dtype
    )
    try:
        top = spla.eigsh(normal, k=1, which="LM", ncv=min(10, dim), tol=1e-8,
                         maxiter=2000, v0=v0, return_eigenvectors=False)
    except spla.ArpackError as exc:
        raise SolverError(f"ARPACK norm estimate failed: {exc}") from exc
    return float(np.sqrt(max(top[0], 0.0)))


def max_eigenpairs(dims: int) -> int:
    """The largest k eigenpairs takes for an operator on dims unknowns: 20 at
    desk scale, and ARPACK needs k < dims - 1."""
    return min(20, dims - 2)


def eigenpairs(L: SparseOperator, k: int, shift: complex = 0.0) -> EigenResult:
    """k eigenvalues of L nearest the shift, by shift-invert ARPACK.

    Implicitly restarted Arnoldi (scipy.sparse.linalg.eigs) on (L - shift)^-1,
    applied through the LU of (shift - L); the start vector is seeded, and a
    real L at a real shift runs real Arnoldi from its real part.
    Every reported pair has ||L v - lam v|| <= _RESIDUAL_LIMIT ||L|| ||v||, a
    test that does not tighten as the grid refines (||L|| ~ 1/h^2), and the
    shift is perturbed once if the factorization breaks down on it.
    """
    dim = L.dims
    k_max = max_eigenpairs(dim)
    if not 1 <= k <= k_max:
        raise ValueError(f"k must lie in [1, {k_max}]")
    shift = _real_if_real(shift)
    shifted = L.shifted(shift)
    try:
        lu = sparse_lu(shifted)
    except SolverError:
        shift = shift + 1e-6 * (1.0 + abs(shift))
        shifted = L.shifted(shift)
        lu = sparse_lu(shifted)

    # the factorization is (shift - L); ARPACK's shift-invert mode wants (L - shift)^-1
    inverse = spla.LinearOperator((dim, dim), matvec=lambda v: -lu.solve(v), dtype=shifted.dtype)
    v0 = _start_vector(99, dim, shifted.dtype)
    try:
        lams, vecs = spla.eigs(
            L.matrix.astype(shifted.dtype, copy=False), k=k, sigma=shift, OPinv=inverse, v0=v0
        )
    except spla.ArpackError as exc:
        raise SolverError(f"ARPACK failed near shift {shift}: {exc}") from exc

    residuals = np.linalg.norm(L.matrix @ vecs - vecs * lams, axis=0)
    limit = _RESIDUAL_LIMIT * matrix_norm(L.matrix)  # ARPACK's eigenvectors have unit norm
    good = [i for i in np.argsort(-lams.real, kind="stable") if residuals[i] <= limit]
    if len(good) < k:
        raise SolverError(f"only {len(good)} of {k} eigenpairs have residual <= {limit:.3g}")
    return EigenResult(
        eigenvalues=[complex(lams[i]) for i in good],
        residuals=[float(residuals[i]) for i in good],
    )


def _scaled_delta(V: MatrixField, source_cell: int, source_component: int) -> VectorField:
    """The scaled delta h^{-d} 1_{cell} e_j that both kernel functions evolve,
    with the potential's m components."""
    vals = np.zeros((V.grid.n_cells, V.rows), dtype=np.complex128)
    vals[source_cell, source_component] = 1.0 / V.grid.cell_measure
    return VectorField(V.grid, vals)


def kernel_column(D: SparseOperator, V: MatrixField, t: float, source_cell: int,
                  source_component: int, cfg: SplitConfig) -> VectorField:
    """Evolve h^{-d} 1_{cell} e_j to time t under D (scalar) and V; the
    result is the kernel column K_h(t, ., y) e_j."""
    if not t > 0:
        raise ValueError("t must be positive")
    delta = _scaled_delta(V, source_cell, source_component)
    return trotter_evolve(D, V, delta, replace(cfg, t_final=t), norm_ps=()).final


def kernel_sweep(D: SparseOperator, V: MatrixField, t_values, source_cell: int,
                 source_component: int, steps_per_segment: int) -> list:
    """Kernel sup norms sup |K_h(t, ., y) e_j| at the sorted t_values, from
    one continued Lie / backward-Euler evolution.

    Each segment from t_i to t_{i+1} runs steps_per_segment substeps, so the
    local step stays proportional to the elapsed time on a geometric
    schedule (constant relative time-stepping error across the sweep).  The
    leading segment starts from the delta at t = 0 and covers a whole decade
    of time on its own, so it runs 4x the substeps.
    """
    state = _scaled_delta(V, source_cell, source_component)
    sups = []
    t_prev = 0.0
    for i, t in enumerate(sorted(t_values)):
        seg = SplitConfig(n_steps=steps_per_segment * (4 if i == 0 else 1), t_final=t - t_prev)
        state = trotter_evolve(D, V, state, seg, norm_ps=()).final
        sups.append(float(np.abs(state.values).max()))
        t_prev = t
    return sups
