"""Assembly of the discrete generator blocks.

The diffusion block realizes div(Q grad .) - 1 componentwise in flux form:
A = -G^T W_Q G - I, where G collects forward differences to cell faces and
W_Q multiplies face gradients by the face-averaged Q (arithmetic mean of the
adjacent cells).  In 2D the q12 cross terms use face-tangential averaged
differences and enter in explicitly symmetrized pairs, so the assembled block
is symmetric negative definite by construction, not just up to O(h).

The potential block is block-diagonal multiplication: the m x m matrix V(x_i)
couples the components of cell i.  Unknown ordering is cell-major, index =
cell * m + component, which makes the diffusion block kron(D_scalar, I_m).

Each cell stencil is written once for any dimension, as a loop over the axes
on np.moveaxis views: the face average here, the backward divergence of the
commutator identity, and the centred gradient fields.cell_gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from vschro.fields import DIFFUSION, POTENTIAL, MatrixField, cell_gradient
from vschro.mesh import Grid, VectorField, lp_norm

__all__ = [
    "SparseOperator",
    "assemble_diffusion",
    "assemble_scalar_diffusion",
    "assemble_potential",
    "apply_operator",
    "commutator_defect",
    "face_difference_matrices",
    "export_matrix_market",
]

_SYMMETRY_TOL = 1e-12


class AssemblyError(ValueError):
    """Raised for incompatible coefficient fields or dimension mismatches."""


class EllipticityError(AssemblyError):
    """Raised when a face-averaged Q fails to be positive definite."""


@dataclass
class SparseOperator:
    """CSR operator on fields over grid with m components per cell."""

    matrix: sp.csr_matrix
    grid: Grid
    m: int
    symmetric: bool = False

    def __post_init__(self):
        mat = self.matrix.tocsr()
        mat.sum_duplicates()
        mat.sort_indices()
        object.__setattr__(self, "matrix", mat)
        n = self.grid.n_cells * self.m
        if mat.shape != (n, n):
            raise AssemblyError(f"operator shape {mat.shape} != ({n}, {n})")
        if self.symmetric:
            defect = abs(mat - mat.T)
            if defect.nnz and defect.max() > _SYMMETRY_TOL:
                raise AssemblyError(f"symmetry flag set but defect {defect.max():.3e}")

    @property
    def dims(self) -> int:
        return self.matrix.shape[0]

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        if self.grid != other.grid or self.m != other.m:
            raise AssemblyError("operators live on different spaces")
        return SparseOperator(
            matrix=(self.matrix + other.matrix).tocsr(),
            grid=self.grid,
            m=self.m,
            symmetric=self.symmetric and other.symmetric,
        )

    def shifted(self, lam: complex) -> sp.csr_matrix:
        """Matrix of (lam I - Op)."""
        n = self.dims
        return (lam * sp.identity(n, dtype=np.result_type(self.matrix.dtype, type(lam)))
                - self.matrix).tocsr()


def face_difference_matrices(grid: Grid) -> dict:
    """Sparse difference operators from cells to faces.

    Keys per axis a: 'G<a>' is the normal difference (u_right - u_left)/h
    across each axis-a face, with zero ghosts outside the box; 'T<a>' is the
    transverse difference at axis-a faces (the four-neighbor average), only
    present in 2D.  Face index layout: axis-0 faces are f0 * N + j, axis-1
    faces are i * (N+1) + f1, so the 2D matrices are Kronecker products of
    the 1D face difference G, the two-cell face sum S and the centred cell
    difference C (scaled by 1/4 for the four-neighbor average).
    """
    N, h = grid.n_per_axis, grid.spacing
    G = sp.diags([1.0 / h, -1.0 / h], [0, -1], shape=(N + 1, N), format="csr")
    if grid.dim == 1:
        return {"G0": G}
    S = sp.diags([1.0, 1.0], [0, -1], shape=(N + 1, N), format="csr")
    C = sp.diags([0.25 / h, -0.25 / h], [1, -1], shape=(N, N), format="csr")
    ident = sp.identity(N, format="csr")
    return {
        "G0": sp.kron(G, ident, format="csr"),
        "T0": sp.kron(S, C, format="csr"),
        "G1": sp.kron(ident, G, format="csr"),
        "T1": sp.kron(C, S, format="csr"),
    }


def _face_average(grid: Grid, cellvals: np.ndarray, axis: int) -> np.ndarray:
    """Arithmetic mean of a per-cell quantity on the two cells of each face.

    Boundary faces take the single interior neighbor.  cellvals has shape
    (n_cells,); the output is ordered like face_difference_matrices.
    """
    N = grid.n_per_axis
    v = np.moveaxis(cellvals.reshape((N,) * grid.dim), axis, 0)
    out = np.empty((N + 1,) + v.shape[1:])
    out[1:N] = 0.5 * (v[:-1] + v[1:])
    out[0] = v[0]
    out[N] = v[-1]
    return np.moveaxis(out, 0, axis).ravel()


def assemble_scalar_diffusion(Q: MatrixField, grid: Grid, shifted: bool = False) -> sp.csr_matrix:
    """Scalar flux-form matrix for div(Q grad .), minus the identity if shifted.

    Checks the face-averaged Q for positive definiteness and symmetrizes the
    result exactly (the construction is symmetric in exact arithmetic; this
    removes the last rounding crumbs).
    """
    if Q.kind != DIFFUSION or Q.grid != grid:
        raise AssemblyError("Q must be a diffusion field on the target grid")
    mats = face_difference_matrices(grid)
    if grid.dim == 1:
        q = Q.values[:, 0, 0]
        qf = _face_average(grid, q, 0)
        if qf.min() <= 0.0:
            raise EllipticityError(f"face-averaged Q has eta1 = {qf.min():.3e} <= 0")
        G = mats["G0"]
        D = -(G.T @ sp.diags(qf) @ G)
    else:
        q11 = _face_average(grid, Q.values[:, 0, 0], 0)
        q12x = _face_average(grid, Q.values[:, 0, 1], 0)
        q22 = _face_average(grid, Q.values[:, 1, 1], 1)
        q12y = _face_average(grid, Q.values[:, 0, 1], 1)
        q11y = _face_average(grid, Q.values[:, 0, 0], 1)
        q22x = _face_average(grid, Q.values[:, 1, 1], 0)
        for a, b, c in ((q11, q22x, q12x), (q11y, q22, q12y)):
            if np.min(a) <= 0.0 or np.min(b) <= 0.0 or np.min(a * b - c * c) <= 0.0:
                raise EllipticityError("face-averaged Q not positive definite")
        G0, T0 = mats["G0"], mats["T0"]
        G1, T1 = mats["G1"], mats["T1"]
        D = -(
            G0.T @ sp.diags(q11) @ G0
            + G1.T @ sp.diags(q22) @ G1
            + 0.5 * (G0.T @ sp.diags(q12x) @ T0 + T0.T @ sp.diags(q12x) @ G0)
            + 0.5 * (G1.T @ sp.diags(q12y) @ T1 + T1.T @ sp.diags(q12y) @ G1)
        )
    D = (0.5 * (D + D.T)).tocsr()
    if shifted:
        D = (D - sp.identity(grid.n_cells)).tocsr()
    return D


def assemble_diffusion(Q: MatrixField, grid: Grid, m: int) -> SparseOperator:
    """Discrete A = [div(Q grad u_k) - u_k], acting identically on each of
    the m components."""
    D = assemble_scalar_diffusion(Q, grid, shifted=True)
    if m == 1:
        full = D
    else:
        full = sp.kron(D, sp.identity(m), format="csr")
    return SparseOperator(matrix=full.tocsr(), grid=grid, m=m, symmetric=True)


def assemble_potential(V: MatrixField, m: int) -> SparseOperator:
    """Block-diagonal multiplication by V(x_i) at every cell."""
    if V.kind != POTENTIAL:
        raise AssemblyError("V must be a potential field")
    if V.rows != m:
        raise AssemblyError(f"potential is {V.rows}x{V.cols} but m = {m}")
    n = V.grid.n_cells
    blocks = np.ascontiguousarray(V.values)
    bsr = sp.bsr_matrix(
        (blocks, np.arange(n), np.arange(n + 1)), shape=(n * m, n * m)
    )
    mat = bsr.tocsr()
    defect = np.max(np.abs(V.values - V.values.transpose(0, 2, 1))) if m > 1 else 0.0
    return SparseOperator(
        matrix=mat, grid=V.grid, m=m, symmetric=bool(defect <= _SYMMETRY_TOL) and not np.iscomplexobj(V.values)
    )


def apply_operator(op: SparseOperator, f: VectorField) -> VectorField:
    if f.grid != op.grid or f.components != op.m:
        raise AssemblyError("field does not match operator layout")
    out = op.matrix @ f.values.ravel()
    return VectorField(f.grid, out.reshape(f.grid.n_cells, op.m))


def _backward_divergence(grid: Grid, w: np.ndarray) -> np.ndarray:
    """Flux-consistent divergence of per-cell vector data w (n_cells, m, d):
    cell values act as their forward-face fluxes, so along each axis the cell
    divergence is the one-sided difference (w_i - w_{i-1})/h with zero ghosts."""
    N, h = grid.n_per_axis, grid.spacing
    shape = (N,) * grid.dim + w.shape[1:-1]
    out = np.zeros(shape, dtype=w.dtype)
    for axis in range(grid.dim):
        wa, oa = np.moveaxis(w[..., axis].reshape(shape), axis, 0), np.moveaxis(out, axis, 0)
        oa[0] += wa[0] / h
        oa[1:] += (wa[1:] - wa[:-1]) / h
    return out.reshape(w.shape[:-1])


def commutator_defect(Q: MatrixField, M: MatrixField, f: VectorField) -> float:
    """L2 defect between the discrete commutator [A, M]f and the identity
    div(Q (grad^k M) f) + tr[Q (grad^k M) Df] evaluated on the grid.

    grad^k M is the d x m matrix of entry gradients of the k-th row of M,
    taken by centered differences; Df likewise; the outer divergence uses the
    flux-consistent one-sided stencil, so the defect vanishes at first order
    in h for smooth data (and identically for constant M).
    """
    grid = f.grid
    m = f.components
    if M.kind != POTENTIAL or M.rows != m:
        raise AssemblyError("M must be an m x m potential-kind field")
    A = assemble_diffusion(Q, grid, m)
    Mop = assemble_potential(M, m)
    comm = apply_operator(A, apply_operator(Mop, f)) - apply_operator(
        Mop, apply_operator(A, f)
    )

    gradM = cell_gradient(M.grid, M.values)  # (n, d, m, m), gradM[c, j, k, l] = D_j m_kl
    gradf = cell_gradient(grid, f.values)  # (n, d, m)
    qv = Q.values.astype(np.result_type(gradM.dtype, f.values.dtype))
    w = np.einsum("cij,cjkl,cl->cki", qv, gradM, f.values)  # (n, m, d)
    div_part = _backward_divergence(grid, w)
    trace_part = np.einsum("cij,cjkl,cil->ck", qv, gradM, gradf)
    rhs = VectorField(grid, div_part + trace_part)
    return lp_norm(comm - rhs, 2)


def export_matrix_market(op: SparseOperator, path):
    """Coordinate-format text dump for external inspection."""
    import scipy.io  # deferred: only export-operator needs it

    scipy.io.mmwrite(str(path), op.matrix)
