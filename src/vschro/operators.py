"""Assembly of the discrete generator blocks.

The diffusion block realizes div(Q grad .) - 1 componentwise in flux form:
-G^T W_Q G - I, where G collects forward differences to cell faces and
W_Q multiplies face gradients by the face-averaged Q (arithmetic mean of the
adjacent cells).  In 2D the q12 cross terms use face-tangential averaged
differences and enter in explicitly symmetrized pairs, so the block is
symmetric negative definite by construction, not just up to O(h).
assemble_scalar_diffusion writes -G^T W_Q G directly as its cell stencil,
without forming G, and assemble_diffusion alone subtracts the identity.

The potential block is block-diagonal multiplication: the m x m matrix V(x_i)
couples the components of cell i.  Unknown ordering is cell-major, index =
cell * m + component, so the diffusion acts as kron(D, I_m); only the whole
generator forms that product (SparseOperator.on_components).

Each cell stencil is written once for any dimension, as a loop over the axes
on np.moveaxis views: the face average here, the backward divergence of the
commutator identity, and the centred gradient fields.cell_gradient.
"""

from __future__ import annotations

import math
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
    "export_matrix_market",
]


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

    def __post_init__(self):
        mat = self.matrix.tocsr()
        mat.sum_duplicates()
        mat.sort_indices()
        object.__setattr__(self, "matrix", mat)
        n = self.grid.n_cells * self.m
        if mat.shape != (n, n):
            raise AssemblyError(f"operator shape {mat.shape} != ({n}, {n})")

    @property
    def dims(self) -> int:
        return self.matrix.shape[0]

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        if self.grid != other.grid or self.m != other.m:
            raise AssemblyError("operators live on different spaces")
        return SparseOperator(matrix=(self.matrix + other.matrix).tocsr(), grid=self.grid, m=self.m)

    def on_components(self, m: int) -> "SparseOperator":
        """kron(matrix, I_m): this scalar operator acting alike on each of m
        components in the cell-major layout."""
        if self.m != 1:
            raise AssemblyError(f"on_components needs a scalar operator, not m = {self.m}")
        return SparseOperator(sp.kron(self.matrix, sp.identity(m), format="csr"), self.grid, m)

    def shifted(self, lam: complex) -> sp.csr_matrix:
        """Matrix of (lam I - Op)."""
        n = self.dims
        return (lam * sp.identity(n, dtype=np.result_type(self.matrix.dtype, type(lam)))
                - self.matrix).tocsr()


def _face_average(grid: Grid, cellvals: np.ndarray, axis: int) -> np.ndarray:
    """Arithmetic mean of a per-cell quantity on the two cells of each face.

    Boundary faces take the single interior neighbor.  cellvals has shape
    (n_cells,); the output has the grid's shape with N + 1 faces along axis.
    """
    N = grid.n_per_axis
    v = np.moveaxis(cellvals.reshape((N,) * grid.dim), axis, 0)
    out = np.empty(tuple(N + (a == axis) for a in range(grid.dim)))  # C order, for the stencil
    oa = np.moveaxis(out, axis, 0)
    oa[1:N] = 0.5 * (v[:-1] + v[1:])
    oa[0] = v[0]
    oa[N] = v[-1]
    return out


# A stencil maps an offset o to the per-cell coefficients of the entries
# (c, c + o).  A face operator's row at the face below cell c maps (offset
# along the face normal, offset across it) to a sign: the normal difference G
# (times 1/h) and, in 2D, the transverse difference T (times 1/4h).
_G_ROW = {(0, 0): 1, (-1, 0): -1}
_T_ROW = {(0, 1): 1, (0, -1): -1, (-1, 1): 1, (-1, -1): -1}


def _face_product(P: np.ndarray, axis: int, row: dict) -> dict:
    """Stencil of G_axis^T diag(q) R, R the face operator with the given row
    and P = fl(fl(q / h) r) per face, r the magnitude of R's entries (the
    sparse product's rounding): cell c is the upper cell of face c, where
    G = +1/h, and the lower cell of face c + 1, where G = -1/h."""
    N, e = P.shape[axis] - 1, np.eye(P.ndim, dtype=int)  # in 2D e[-1 - axis] runs across
    lo, hi = (P[(slice(None),) * axis + (slice(k, N + k),)] for k in (0, 1))
    st = {}
    for (normal, across), sign in row.items():
        o = normal * e[axis] + across * e[-1 - axis]
        for key, val in ((tuple(o.tolist()), sign * lo),
                         (tuple((o + e[axis]).tolist()), -sign * hi)):
            _accumulate(st, key, val)
    return st


def _accumulate(st: dict, o: tuple, val: np.ndarray) -> None:
    """st[o] += val in place, or st[o] = val, a fresh array, for a missing o
    (as 0.0 + x, up to the sign of a zero, which is never stored)."""
    st[o] = np.add(st[o], val, out=st[o]) if o in st else val


def _overlap(o: tuple, N: int) -> tuple:
    """Slices of the cells c whose neighbour c + o is on the grid, and of those neighbours."""
    return (tuple(slice(max(-k, 0), N - max(k, 0)) for k in o),
            tuple(slice(max(k, 0), N + min(k, 0)) for k in o))


def _stencil_csr(st: dict, grid: Grid) -> sp.csr_matrix:
    """The CSR matrix of a stencil, without entries off the grid or exact zeros, written
    from per-row counts with int32 indices (int64 past 2^31 entries): one scatter per
    offset in ascending order, each offset's array leaving st once written."""
    N, n = grid.n_per_axis, grid.n_cells
    itype = np.int32 if len(st) * n < 2 ** 31 else np.int64
    indptr = np.zeros(n + 1, dtype=itype)
    for o, v in st.items():
        for axis, k in enumerate(o):
            if k:  # the boundary layer whose neighbour is off the grid
                v[(slice(None),) * axis + (-1 if k > 0 else 0,)] = 0.0
        indptr[1:] += (v != 0.0).reshape(n)
    np.cumsum(indptr, out=indptr)
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=itype)
    slot = indptr[:-1].copy()  # each row's next free slot
    for o in sorted(st):  # lexicographic offsets are ascending columns in every row
        v = st.pop(o).reshape(n)
        rows = np.flatnonzero(v)
        at = slot[rows]
        data[at] = v[rows]
        indices[at] = rows + int(np.dot(o, N ** np.arange(grid.dim)[::-1]))
        slot[rows] += 1
        del v, rows, at
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def assemble_scalar_diffusion(Q: MatrixField, grid: Grid) -> sp.csr_matrix:
    """Scalar flux-form matrix for div(Q grad .), without the -I.

    Checks the face-averaged Q for positive definiteness.  The stencil is
    written cell by cell with the rounding of the sparse products
    -(G0^T W11 G0 + G1^T W22 G1 + 1/2 (G0^T W12 T0 + T0^T W12 G0)
    + 1/2 (G1^T W12 T1 + T1^T W12 G1)), term by term and in that order, then
    symmetrized exactly as 1/2 (D + D^T) (the construction is symmetric in
    exact arithmetic; this removes the last rounding crumbs).  Each offset's
    per-cell array is made once and then updated in place.
    """
    if Q.kind != DIFFUSION or Q.grid != grid:
        raise AssemblyError("Q must be a diffusion field on the target grid")
    N, d, g, t = grid.n_per_axis, grid.dim, 1.0 / grid.spacing, 0.25 / grid.spacing
    # the diagonal reaches 2 d max|q| / h^2, and 1/2 (D + D^T) sums it twice
    if not math.isfinite(4.0 * d * float(np.abs(Q.values).max()) * g * g):
        raise AssemblyError(f"extent = {grid.extent!r} is too small for {grid.n_per_axis} cells "
                            f"per axis: the diffusion stencil overflows at h = {grid.spacing:.3g}")
    faces = [[_face_average(grid, Q.values[:, k, k], a) for k in range(d)] for a in range(d)]
    cross = [_face_average(grid, Q.values[:, 0, 1], a) for a in range(d)] if d == 2 else []
    if d == 1 and faces[0][0].min() <= 0.0:
        raise EllipticityError(f"face-averaged Q has eta1 = {faces[0][0].min():.3e} <= 0")
    if any(np.min(q11) <= 0.0 or np.min(q22) <= 0.0 or np.min(q11 * q22 - q12 * q12) <= 0.0
           for (q11, q22), q12 in zip(faces, cross)):
        raise EllipticityError("face-averaged Q not positive definite")
    S = {}
    for a in range(d):
        for o, v in _face_product((g * faces[a][a]) * g, a, _G_ROW).items():
            _accumulate(S, o, v)
    del faces
    for a in range(len(cross)):
        if cross[a].any():  # else the pair adds only signed zeros
            pair = _face_product((g * cross[a]) * t, a, _T_ROW)
            for o, v in _face_product((t * cross[a]) * g, a, _T_ROW).items():  # plus its transpose
                here, there = _overlap(o, N)
                pair[tuple(-k for k in o)][there] += v[here]
            while pair:  # S += 1/2 pair, each array leaving pair as it is added
                o, v = pair.popitem()
                _accumulate(S, o, np.multiply(v, 0.5, out=v))
            del v
    del cross
    # D = -S and 1/2 (D + D^T) in one, offset pair by offset pair (the diagonal
    # with itself): -1/2 (S + S^T) rounds as 1/2 ((-S) + (-S)^T), bit for bit
    for o in S:
        if o >= (back := tuple(-k for k in o)):
            here, there = _overlap(o, N)
            S[o][here] += S[back][there]
            S[o] *= -0.5
            S[back][there] = S[o][here]
    return _stencil_csr(S, grid)


def assemble_diffusion(Q: MatrixField, grid: Grid) -> SparseOperator:
    """The scalar block D - I of A = [div(Q grad u_k) - u_k], D the bare
    block of assemble_scalar_diffusion; A acts as it on each of the m
    components: A = kron(D - I, I_m) (SparseOperator.on_components)."""
    D = assemble_scalar_diffusion(Q, grid)
    # in place: the diagonal, -(sum of the face q) / h^2 < 0, is always stored
    D.setdiag(D.diagonal() - 1.0)
    return SparseOperator(D, grid, 1)


def assemble_potential(V: MatrixField, m: int) -> SparseOperator:
    """Block-diagonal multiplication by V(x_i) at every cell."""
    if V.kind != POTENTIAL:
        raise AssemblyError("V must be a potential field")
    if V.rows != m:
        raise AssemblyError(f"potential is {V.rows}x{V.rows} but m = {m}")
    n = V.grid.n_cells
    blocks = np.ascontiguousarray(V.values)
    bsr = sp.bsr_matrix(
        (blocks, np.arange(n), np.arange(n + 1)), shape=(n * m, n * m)
    )
    return SparseOperator(bsr.tocsr(), V.grid, m)


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
    D = assemble_diffusion(Q, grid).matrix  # A acts as D on each component column
    Mop = assemble_potential(M, m)
    comm = (VectorField(grid, D @ apply_operator(Mop, f).values)
            - apply_operator(Mop, VectorField(grid, D @ f.values)))

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
