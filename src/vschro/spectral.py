"""Resolvent solves, operator-norm estimates, eigenpairs and kernel columns.

Resolvent systems (lam - L)u = f are solved by sparse LU, with the ordering
the diffusion substeps use (evolve.sparse_lu); closeness of lam to the
spectrum surfaces as a residual failure and is reported as a
spectral-proximity diagnostic.  ARPACK (Lehoucq, Sorensen & Yang, ARPACK
Users' Guide, SIAM 1998) does the iterative work on that LU: implicitly
restarted Lanczos on R^H R gives the resolvent 2-norm ||R|| to rounding, and
implicitly restarted Arnoldi in shift-invert mode gives the eigenvalues near
a shift, with residuals measured on the original operator.  Kernel columns
are read off by evolving scaled discrete deltas: on a fixed grid the
discrete kernel is literally the matrix of the evolution map.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from vschro.evolve import SplitConfig, sparse_lu, trotter_evolve
from vschro.fields import MatrixField
from vschro.mesh import VectorField
from vschro.operators import SparseOperator

__all__ = [
    "ResolventQuery",
    "EigenResult",
    "KernelEstimate",
    "SpectralProximityError",
    "solve_resolvent",
    "operator_norm_estimate",
    "resolvent_norm",
    "eigenpairs",
    "kernel_column",
    "kernel_sweep",
]

_RESIDUAL_LIMIT = 1e-8


class SpectralProximityError(RuntimeError):
    """The solve broke down or missed its residual; lam is likely near the
    spectrum.  Diagnostic, not necessarily a bug."""


@dataclass(frozen=True)
class ResolventQuery:
    lam: complex
    rhs: VectorField
    solver_tol: float = 1e-10


@dataclass
class EigenResult:
    """Eigenvalues sorted by real part (descending) with their unit-norm
    fields and residuals ||L v - lam v||."""

    eigenvalues: list
    eigenfields: list = field(repr=False)
    residuals: list


@dataclass
class KernelEstimate:
    """Discrete kernel column K_h(t, ., y) e_j and its sup norm; kernel_sweep
    keeps the sup norm only (column None)."""

    t: float
    source_cell: int
    source_component: int
    sup_abs: float
    column: VectorField | None = field(default=None, repr=False)


def _factorize(matrix: sp.spmatrix):
    """Complex LU so real operators admit complex shifts and right-hand sides."""
    try:
        return sparse_lu(matrix.astype(np.complex128))
    except RuntimeError as exc:
        raise SpectralProximityError(f"LU breakdown: {exc}") from exc


def solve_resolvent(L: SparseOperator, q: ResolventQuery) -> VectorField:
    """Solve (lam - L) u = rhs; residual-checked against q.solver_tol."""
    if q.rhs.grid != L.grid or q.rhs.components != L.m:
        raise ValueError("rhs does not match operator layout")
    shifted = L.shifted(q.lam)
    lu = _factorize(shifted)
    b = q.rhs.values.ravel()
    x = lu.solve(b)
    resid = np.linalg.norm(shifted @ x - b)
    bound = q.solver_tol * max(np.linalg.norm(b), 1e-300)
    if not np.isfinite(resid) or resid > bound:
        raise SpectralProximityError(
            f"residual {resid:.3e} above {bound:.3e}; lam={q.lam} may sit near the spectrum"
        )
    return VectorField(q.rhs.grid, x.reshape(q.rhs.grid.n_cells, L.m))


def operator_norm_estimate(
    apply_fn,
    apply_adjoint_fn,
    dim: int,
    rel_tol: float = 1e-8,
    max_iters: int = 2000,
    seed: int = 1234,
) -> float:
    """Largest singular value: the square root of the top eigenvalue of the
    Hermitian operator (adjoint o apply), by ARPACK's implicitly restarted
    Lanczos (scipy.sparse.linalg.eigsh).

    rel_tol is ARPACK's relative tolerance on that eigenvalue and max_iters
    caps its restarts; the start vector is drawn from seed, so the estimate
    is deterministic.  An ARPACK failure raises SpectralProximityError.
    """
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    normal = spla.LinearOperator(
        (dim, dim), matvec=lambda v: apply_adjoint_fn(apply_fn(v)), dtype=np.complex128
    )
    try:
        top = spla.eigsh(normal, k=1, which="LM", ncv=min(10, dim), tol=rel_tol,
                         maxiter=max_iters, v0=v0, return_eigenvectors=False)
    except spla.ArpackError as exc:
        raise SpectralProximityError(f"ARPACK norm estimate failed: {exc}") from exc
    return float(np.sqrt(max(top[0], 0.0)))


def resolvent_norm(L: SparseOperator, lam: complex) -> float:
    """2-norm of (lam - L)^{-1}: operator_norm_estimate on solves with the
    LU of (lam - L) and its conjugate transpose, exact to rounding."""
    lu = _factorize(L.shifted(lam))
    return operator_norm_estimate(lambda v: lu.solve(v.astype(np.complex128)),
                                  lambda v: lu.solve(v.astype(np.complex128), trans="H"), L.dims)


def eigenpairs(L: SparseOperator, k: int, shift: complex = 0.0, seed: int = 99) -> EigenResult:
    """k eigenvalues of L nearest the shift, by shift-invert ARPACK.

    Implicitly restarted Arnoldi (scipy.sparse.linalg.eigs) on (L - shift)^-1,
    applied through the LU of (shift - L); the start vector is drawn from
    seed.  Every reported pair satisfies ||L v - lam v|| <= 1e-8 ||v||, and
    the shift is perturbed once if the factorization breaks down on it.
    """
    dim = L.dims
    k_max = min(20, dim - 2)  # desk scale; ARPACK needs k < dim - 1
    if not 1 <= k <= k_max:
        raise ValueError(f"k must lie in [1, {k_max}]")
    shift = complex(shift)
    try:
        lu = _factorize(L.shifted(shift))
    except SpectralProximityError:
        shift = shift + 1e-6 * (1.0 + abs(shift))
        lu = _factorize(L.shifted(shift))

    # the factorization is (shift - L); ARPACK's shift-invert mode wants (L - shift)^-1
    inverse = spla.LinearOperator(
        (dim, dim), matvec=lambda v: -lu.solve(v.astype(np.complex128)), dtype=np.complex128
    )
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    try:
        lams, vecs = spla.eigs(
            L.matrix.astype(np.complex128), k=k, sigma=shift, OPinv=inverse, v0=v0
        )
    except spla.ArpackError as exc:
        raise SpectralProximityError(f"ARPACK failed near shift {shift}: {exc}") from exc

    residuals = np.linalg.norm(L.matrix @ vecs - vecs * lams, axis=0)
    good = [i for i in np.argsort(-lams.real, kind="stable") if residuals[i] <= _RESIDUAL_LIMIT]
    if len(good) < k:
        raise SpectralProximityError(
            f"only {len(good)} of {k} eigenpairs have residual <= {_RESIDUAL_LIMIT:g}"
        )
    return EigenResult(
        eigenvalues=[complex(lams[i]) for i in good],
        eigenfields=[VectorField(L.grid, vecs[:, i].reshape(L.grid.n_cells, L.m)) for i in good],
        residuals=[float(residuals[i]) for i in good],
    )


def _scaled_delta(V: MatrixField, source_cell: int, source_component: int) -> VectorField:
    """The scaled delta h^{-d} 1_{cell} e_j that both kernel functions evolve,
    with the potential's m components."""
    vals = np.zeros((V.grid.n_cells, V.rows), dtype=np.complex128)
    vals[source_cell, source_component] = 1.0 / V.grid.cell_measure
    return VectorField(V.grid, vals)


def kernel_column(
    D: SparseOperator,
    V: MatrixField,
    t: float,
    source_cell: int,
    source_component: int,
    cfg: SplitConfig,
) -> KernelEstimate:
    """Evolve h^{-d} 1_{cell} e_j to time t under D (scalar) and V; the
    result is K_h(t, ., y) e_j."""
    if not t > 0:
        raise ValueError("t must be positive")
    delta = _scaled_delta(V, source_cell, source_component)
    column = trotter_evolve(D, V, delta, replace(cfg, t_final=t), norm_ps=()).final
    return KernelEstimate(
        t=t,
        source_cell=source_cell,
        source_component=source_component,
        column=column,
        sup_abs=float(np.abs(column.values).max()),
    )


def kernel_sweep(
    D: SparseOperator,
    V: MatrixField,
    t_values,
    source_cell: int,
    source_component: int,
    cfg: SplitConfig,
    steps_per_segment: int = 16,
    first_segment_steps: int | None = None,
) -> list:
    """Kernel estimates at several times from one continued evolution.

    Each segment from t_i to t_{i+1} runs steps_per_segment substeps, so the
    local step stays proportional to the elapsed time on a geometric
    schedule (constant relative time-stepping error across the sweep).  The
    leading segment starts from the delta at t = 0 and covers a whole decade
    of time on its own, so it defaults to 4x the substeps.
    """
    state = _scaled_delta(V, source_cell, source_component)
    if first_segment_steps is None:
        first_segment_steps = 4 * steps_per_segment
    out = []
    t_prev = 0.0
    for i, t in enumerate(sorted(t_values)):
        steps = first_segment_steps if i == 0 else steps_per_segment
        seg = replace(cfg, n_steps=steps, t_final=t - t_prev)
        state = trotter_evolve(D, V, state, seg, norm_ps=()).final
        out.append(
            KernelEstimate(
                t=t,
                source_cell=source_cell,
                source_component=source_component,
                sup_abs=float(np.abs(state.values).max()),
            )
        )
        t_prev = t
    return out
