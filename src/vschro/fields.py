"""Matrix-valued coefficient fields Q(x), V(x) and per-cell matrix functions.

Q is the d x d symmetric diffusion matrix, V the m x m potential coupling the
components.  Everything here is cell-local: matrix exponentials (scaling and
squaring with a diagonal Pade approximant), real/complex matrix powers
(eigendecomposition with a quadrature fallback on the resolvent integral
M^(-a) = sin(pi a)/pi * int_0^inf t^(-a) (t+M)^(-1) dt), and a validator that
measures the structural assumptions the evolution and spectral layers rely
on: uniform ellipticity of Q, the dissipativity margin of V, the growth of
D_jV (-V)^(-a), off-diagonal signs, and the range of kappa(x), the smallest
singular value of V(x).  The shift normalization needs only the
top eigenvalue of the Hermitian part of V, so a problem is validated once, on
its final potential.  Sampled fields repeat their matrices (a constant field
has one), so the validator and the matrix powers run each per-cell matrix
function once per distinct cell matrix (MatrixField.distinct) and scatter the
results back to the cells.  The one grid stencil, cell_gradient, takes centred
differences along each axis in turn (one-sided at the boundary layer); the
validator's D_jV and the commutator identity in operators both use it.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from vschro.mesh import Grid

__all__ = [
    "MatrixField",
    "HypothesisReport",
    "sample_field",
    "matrix_exp",
    "distinct_matrix_powers",
    "cell_gradient",
    "validate_hypotheses",
    "hermitian_top_eigenvalue",
    "shift_potential",
    "make_rule",
    "RULE_NAMES",
]

DIFFUSION = "diffusion"
POTENTIAL = "potential"

_SYMMETRY_HARD_LIMIT = 1e-8
_NORM_OVERFLOW_LIMIT = 1e8


class FieldError(ValueError):
    """Raised for invalid coefficient data (non-finite, asymmetric, ...)."""


class BranchCutError(ValueError):
    """Raised when a matrix power is requested for a spectrum touching (-inf, 0]."""


@dataclass
class MatrixField:
    """Per-cell small dense matrices; values has shape (n_cells, rows, cols).

    kind is "diffusion" (d x d, symmetric) or "potential" (m x m).  shift
    records how much has been subtracted from the diagonal relative to the
    potential the caller originally supplied, so semigroup comparisons can be
    un-rescaled later.
    """

    grid: Grid
    kind: str
    values: np.ndarray = field(repr=False)
    shift: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 3 or v.shape[0] != self.grid.n_cells or v.shape[1] != v.shape[2]:
            raise FieldError(f"values must be (n_cells, k, k), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise FieldError("non-finite matrix entries")
        if self.kind == DIFFUSION:
            if v.shape[1] != self.grid.dim:
                raise FieldError("diffusion matrices must be d x d")
            if np.iscomplexobj(v) and np.any(v.imag != 0.0):  # Q is real
                raise FieldError("diffusion matrices must be real, got imaginary parts up to "
                                 f"{float(np.abs(v.imag).max()):.3e}")
            v = v.real  # float64 for a complex128 field whose imaginary parts are all zero
            defect = float(np.max(np.abs(v - v.transpose(0, 2, 1))))
            if defect > _SYMMETRY_HARD_LIMIT:
                raise FieldError(f"diffusion symmetry defect {defect:.3e} > {_SYMMETRY_HARD_LIMIT}")
            if defect > 0.0:
                v = 0.5 * (v + v.transpose(0, 2, 1))
        elif self.kind != POTENTIAL:
            raise FieldError(f"unknown kind {self.kind!r}")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def rows(self) -> int:
        return self.values.shape[1]

    @property
    def is_constant(self) -> bool:
        """Whether every cell holds the same matrix."""
        return bool((self.values == self.values[:1]).all())

    @cached_property
    def distinct(self) -> tuple:
        """(first, inverse) with values == values[first][inverse]: the first
        cell holding each distinct matrix, and each cell's index into them.

        Cells are keyed by their bytes, so 0.0 and -0.0 stay apart (float
        equality would merge them) and a matrix function evaluated on
        values[first] and gathered by inverse is bit-identical per cell.  A
        stable lexsort of the bytes as unsigned words groups the cells (faster
        than sorting them as one np.void key).
        """
        n = len(self.values)
        keys = self.values.reshape(n, -1).view(f"u{math.gcd(self.values.itemsize, 8)}")
        order = np.lexsort(keys.T[::-1])  # stable: each group's first cell leads it
        starts = np.ones(n, dtype=bool)
        starts[1:] = (np.diff(keys[order], axis=0) != 0).any(axis=1)
        first = order[starts]
        inverse = np.empty(n, dtype=np.intp)
        inverse[order] = np.cumsum(starts) - 1
        first.setflags(write=False)
        inverse.setflags(write=False)
        return first, inverse


def sample_field(rule, grid: Grid, kind: str) -> MatrixField:
    """Evaluate a batched matrix rule at every cell.

    rule maps the (n_cells, d) cell centres to (n_cells, k, k) matrices.
    Diffusion samples are symmetrized; the recorded defect must stay below
    1e-8 or the sample is rejected.
    """
    vals = np.asarray(rule(grid.coords()))
    return MatrixField(grid=grid, kind=kind, values=vals.astype(np.result_type(vals, np.float64)))


def _padded_norm(M: np.ndarray) -> np.ndarray:
    """Batched 1-norm (max column abs sum) over trailing (k, k) axes."""
    return np.abs(M).sum(axis=-2).max(axis=-1)


# Coefficients of the [13/13] diagonal Pade approximant to exp.
_PADE13 = np.array(
    [
        64764752532480000.0,
        32382376266240000.0,
        7771770303897600.0,
        1187353796428800.0,
        129060195264000.0,
        10559470521600.0,
        670442572800.0,
        33522128640.0,
        1323241920.0,
        40840800.0,
        960960.0,
        16380.0,
        182.0,
        1.0,
    ]
)


_EXP_CHUNK = 4096  # matrices per Pade evaluation: bounds the temporaries; s is the batch's


def matrix_exp(M: np.ndarray) -> np.ndarray:
    """exp(M) by scaling and squaring with the [13/13] Pade approximant.

    Accepts a single (k, k) matrix or a batch (..., k, k); the scaling power
    is chosen from the largest 1-norm in the batch.  An exactly-zero matrix
    gets the exact identity.  Rejects norms above 1e8 (the squaring chain
    would overflow long before being meaningful).
    """
    A = np.asarray(M, dtype=np.complex128 if np.iscomplexobj(M) else np.float64)
    single = A.ndim == 2
    if single:
        A = A[None]
    k = A.shape[-1]
    nrm = float(_padded_norm(A).max(initial=0.0))
    if not np.isfinite(nrm) or nrm > _NORM_OVERFLOW_LIMIT:
        raise FieldError(f"matrix norm {nrm:.3e} too large for exp")
    s = max(0, int(np.ceil(np.log2(nrm))) + 1) if nrm > 1.0 else 0
    flat = A.reshape(-1, k, k)
    E = np.empty_like(flat)
    for lo in range(0, len(flat), _EXP_CHUNK):
        E[lo:lo + _EXP_CHUNK] = _pade13_squared(flat[lo:lo + _EXP_CHUNK] / (2.0**s), s)
    # the Pade solve misses exp(0) = I in the last bit for k >= 2
    E[~flat.reshape(len(flat), k * k).any(axis=1)] = np.eye(k)
    E = E.reshape(A.shape)
    return E[0] if single else E


def _pade13_squared(A: np.ndarray, s: int) -> np.ndarray:
    """[13/13] Pade approximant of exp on a (n, k, k) batch, squared s times."""
    b = _PADE13
    ident = np.broadcast_to(np.eye(A.shape[-1], dtype=A.dtype), A.shape).copy()
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6
        + b[5] * A4
        + b[3] * A2
        + b[1] * ident
    )
    W = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6
        + b[4] * A4
        + b[2] * A2
        + b[0] * ident
    )
    E = np.linalg.solve(W - U, W + U)
    for _ in range(s):
        E = E @ E
    return E


def _eig_power(M: np.ndarray, z: complex):
    """Principal power by eigendecomposition; returns (result, ok_mask).

    ok is False where the eigenbasis S is ill-conditioned: where the
    Frobenius bound ||S||_F ||S^-1||_F exceeds 1e8.  The bound lies in
    [cond_2, k cond_2] and reuses the inverse the power needs (no second
    batched SVD).  Raises if the spectrum touches the branch cut (-inf, 0].
    """
    w, S = np.linalg.eig(M)
    scale = np.abs(w).max(axis=-1)
    on_cut = (w.real <= 0.0) & (np.abs(w.imag) <= 1e-14 * np.maximum(scale, 1.0)[..., None])
    if np.any(on_cut):
        raise BranchCutError("eigenvalue on (-inf, 0]; principal power undefined")
    powered = np.exp(z * np.log(w))
    Sinv = np.linalg.inv(S)
    cond = np.linalg.norm(S, axis=(-2, -1)) * np.linalg.norm(Sinv, axis=(-2, -1))
    return S @ (powered[..., :, None] * Sinv), cond <= 1e8


_GL_NODES, _GL_WEIGHTS = leggauss(10)


def _balakrishnan_power(M: np.ndarray, alpha: float) -> np.ndarray:
    """M^(-alpha), alpha in (0, 1), by the resolvent integral.

    Substituting t = e^u turns the integral into
        sin(pi a)/pi * int e^{(1-a)u} (e^u + M)^{-1} du,
    evaluated with 10-point Gauss-Legendre panels of width 1 on
    [-40, 40].  The truncated tails are added in closed form
    (geometric expansion of the resolvent), which keeps the rule accurate
    for every alpha in (0, 1), not just mid-range ones.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"quadrature route needs alpha in (0,1), got {alpha}")
    A = np.asarray(M, dtype=np.complex128)
    single = A.ndim == 2
    if single:
        A = A[None]
    k = A.shape[-1]
    ident = np.eye(k, dtype=np.complex128)
    total = np.zeros_like(A)
    window = 40.0
    edges = np.arange(-window, window)
    for left in edges:
        u = left + 0.5 * (_GL_NODES + 1.0)
        for ui, wi in zip(u, _GL_WEIGHTS):
            resolvent = np.linalg.inv(np.exp(ui) * ident + A)
            total = total + (0.5 * wi * np.exp((1.0 - alpha) * ui)) * resolvent
    # Tails: (e^u + M)^{-1} ~ e^{-u}(I - e^{-u} M) above, ~ M^{-1}(I - e^u M^{-1}) below.
    Minv = np.linalg.inv(A)
    upper = np.exp(-alpha * window) / alpha * ident - np.exp(-(1.0 + alpha) * window) / (
        1.0 + alpha
    ) * A
    lower = np.exp(-(1.0 - alpha) * window) / (1.0 - alpha) * Minv - np.exp(
        -(2.0 - alpha) * window
    ) / (2.0 - alpha) * (Minv @ Minv)
    total = total + upper + lower
    res = (np.sin(np.pi * alpha) / np.pi) * total
    return res[0] if single else res


def distinct_matrix_powers(V: MatrixField, z: complex) -> np.ndarray:
    """Principal powers (-V(x))^z of V's distinct cell matrices, one per
    cell of V.distinct[0]; V.distinct[1] gathers them to every cell.

    Cells whose eigenbasis is too ill-conditioned are recomputed with the
    quadrature route (real exponents only); cells on the branch cut make the
    whole call raise BranchCutError.
    """
    first, inverse = V.distinct
    A = (-V.values[first]).astype(np.complex128)
    z = complex(z)
    res, ok = _eig_power(A, z)
    bad = ~ok
    if np.any(bad):
        if z.imag != 0.0 or not -1.0 < z.real < 0.0:
            raise FieldError(
                f"{int(bad[inverse].sum())} cells have defective matrices; "
                "only real exponents in (-1,0) supported there"
            )
        res[bad] = _balakrishnan_power(A[bad], -z.real)
    return res


def cell_gradient(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Centred differences of per-cell data, (n_cells, ...) -> (n_cells, d, ...).

    One-sided at the boundary layer: ghost values are not part of the data,
    so the stencil shortens there.
    """
    N, h, d = grid.n_per_axis, grid.spacing, grid.dim
    v = values.reshape((N,) * d + values.shape[1:])
    g = np.empty((N,) * d + (d,) + values.shape[1:], dtype=values.dtype)
    for axis in range(d):
        va, ga = np.moveaxis(v, axis, 0), np.moveaxis(g[(slice(None),) * d + (axis,)], axis, 0)
        ga[1:-1] = (va[2:] - va[:-2]) / (2.0 * h)
        ga[0] = (va[1] - va[0]) / h
        ga[-1] = (va[-1] - va[-2]) / h
    return g.reshape((grid.n_cells, d) + values.shape[1:])


@dataclass
class HypothesisReport:
    """Measured structural quantities for a (Q, V) pair.

    All suprema are over the sampled box, not over R^d; growth_sup in
    particular is only a box-restricted surrogate for the uniform bound.
    applied_shift is the shift already subtracted from V; kappa_min and
    kappa_max bound kappa(x), the smallest singular value of V(x).
    """

    eta1: float
    eta2: float
    dissipativity_margin: float
    alpha: float
    growth_sup: float
    offdiag_min: float
    shift_beta: float
    applied_shift: float
    kappa_min: float
    kappa_max: float


def hermitian_top_eigenvalue(V: MatrixField) -> float:
    """Largest eigenvalue of the Hermitian part (V + V^H)/2 over all cells:
    the beta in <V xi, xi> <= beta |xi|^2."""
    v = V.values[V.distinct[0]]
    vsym = 0.5 * (v + np.conj(v.transpose(0, 2, 1)))
    return float(np.linalg.eigvalsh(vsym)[:, -1].max())


def validate_hypotheses(Q: MatrixField, V: MatrixField, alpha: float) -> HypothesisReport:
    """Measure the coefficient assumptions on the sampled grid.

    Never raises on a violation: the report records margins and the caller
    decides.  Derivatives of V come from grid finite differences, so
    growth_sup carries the same O(h^2) sampling error as everything else.
    The eigenvalues, powers and singular values are taken once per distinct
    cell matrix.
    """
    if Q.grid != V.grid:
        raise FieldError("Q and V live on different grids")
    if not 0.0 <= alpha < 0.5:
        raise ValueError(f"alpha must lie in [0, 0.5), got {alpha}")

    q = Q.values[Q.distinct[0]]
    qsym = 0.5 * (q + q.transpose(0, 2, 1))
    qeigs = np.linalg.eigvalsh(qsym)
    eta1 = float(qeigs[:, 0].min())
    eta2 = float(qeigs[:, -1].max())

    lam_max = hermitian_top_eigenvalue(V)
    margin = lam_max + 1.0
    shift_beta = max(0.0, lam_max)

    gradV = cell_gradient(V.grid, V.values)
    try:
        if alpha > 0.0:  # the power first, so no complex copy of gradV is live in eig
            P, inverse = distinct_matrix_powers(V, -alpha), V.distinct[1]
        sups = []
        for lo in range(0, len(gradV), _EXP_CHUNK):  # cells per chunk: bounds the temporaries
            prod = gradV[lo:lo + _EXP_CHUNK]  # (-V)^0 = I: a = 0 measures gradV itself
            if alpha > 0.0:
                prod = prod.astype(np.complex128) @ P[inverse[lo:lo + _EXP_CHUNK], None, :, :]
            sups.append(np.sqrt((np.abs(prod) ** 2).sum(axis=(-2, -1))).max())
        growth_sup = float(np.max(sups))  # np.max, not max: a NaN propagates
    except (BranchCutError, FieldError, np.linalg.LinAlgError):
        growth_sup = np.inf

    m = V.rows
    if m > 1:
        off = ~np.eye(m, dtype=bool)
        offdiag_min = float(V.values.real[:, off].min())
    else:
        offdiag_min = 0.0

    kappa = np.linalg.svd(V.values[V.distinct[0]], compute_uv=False)[:, -1]

    return HypothesisReport(
        eta1=eta1,
        eta2=eta2,
        dissipativity_margin=margin,
        alpha=float(alpha),
        growth_sup=growth_sup,
        offdiag_min=offdiag_min,
        shift_beta=float(shift_beta),
        applied_shift=float(V.shift),
        kappa_min=float(kappa.min()),
        kappa_max=float(kappa.max()),
    )


def shift_potential(V: MatrixField, beta: float | None = None) -> MatrixField:
    """Subtract (beta + 1) I so the quadratic form drops below -|xi|^2.

    beta defaults to the measured max of the symmetric-part eigenvalues
    (clipped at 0).  The shift is recorded on the result; evolving with the
    shifted potential rescales the semigroup by e^{-t(beta+1)} relative to
    the unshifted one.
    """
    if beta is None:
        beta = max(0.0, hermitian_top_eigenvalue(V))
    s = beta + 1.0
    ident = np.eye(V.rows, dtype=V.values.dtype)
    return MatrixField(
        grid=V.grid,
        kind=V.kind,
        values=V.values - s * ident,
        shift=V.shift + s,
    )


# ---------------------------------------------------------------------------
# Named coefficient rules, selectable from configs.

def _constant(mat: np.ndarray):
    return lambda x: np.broadcast_to(mat, (len(x),) + mat.shape)


def _rule_identity_q(dim):
    return _constant(np.eye(dim)), DIFFUSION


def _rule_anisotropic_q(dim, theta=0.0, ratio=1.0):
    if dim == 1:
        if float(theta) != 0.0:  # a 1D rule has no axes to rotate
            raise FieldError(f"rule 'anisotropic_Q' parameter 'theta' rotates 2D axes; dim = 1 takes "
                             f"theta = 0, got {theta!r}")
        mat = np.array([[float(ratio)]])
    else:
        c, s = np.cos(float(theta)), np.sin(float(theta))
        rot = np.array([[c, -s], [s, c]])
        mat = rot @ np.diag([1.0, float(ratio)]) @ rot.T
    return _constant(mat), DIFFUSION


def _rule_cross_q(dim, q12=0.3):
    if dim != 2:
        raise FieldError("cross_Q needs dim = 2")
    return _constant(np.array([[1.0, float(q12)], [float(q12), 1.0]])), DIFFUSION


_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _rule_rotation_v(dim, r=1.5):
    r = float(r)
    if not 1.0 <= r < 2.0:
        raise FieldError(f"rotation exponent r must lie in [1, 2), got {r}")

    def rule(x):
        return (1.0 + np.linalg.norm(x, axis=1) ** r)[:, None, None] * _J

    return rule, POTENTIAL


def _rule_upper_triangular_v(dim):
    def rule(x):
        vals = np.zeros((len(x), 2, 2))
        vals[:, 0, 1] = x[:, 0]
        return vals

    return rule, POTENTIAL


def _rule_degenerate_v(dim):
    base = np.array([[-1.0, 1.0], [1.0, -1.0]])

    def rule(x):
        return np.linalg.norm(x, axis=1)[:, None, None] * base

    return rule, POTENTIAL


def _rule_diag_v(dim, c=-1.0, m=2):
    c, m = float(c), int(m)

    def rule(x):  # the m x m matrix is built when sampled: checking a config builds none
        return np.broadcast_to(c * np.eye(m), (len(x), m, m))

    return rule, POTENTIAL


def _rule_coupled_v(dim, a=-2.0, b=1.0, c=0.5):
    """Constant 2x2 potential [[a, b], [c, a]]; sign of b, c drives positivity."""
    return _constant(np.array([[float(a), float(b)], [float(c), float(a)]])), POTENTIAL


def _rule_complex_linear_v(dim):
    """1-component potential -i x[0]; the non-analyticity witness."""

    def rule(x):
        return (-1j * x[:, 0])[:, None, None]

    return rule, POTENTIAL


def _rule_custom_table(dim, path=None, kind=POTENTIAL):
    """Per-cell matrices from a CSV table with rows cell,row,col,value[,imag];
    the table must list exactly one matrix per grid cell.  The table is read
    when the rule is sampled, so checking a config reads no file."""
    if path is None:
        raise FieldError("custom_table needs a path parameter")

    def rule(x):
        try:
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            raise FieldError(f"cannot read custom table {path}: {exc}") from None
        if len(table) == 0 or table.shape[1] not in (4, 5) or table[:, :3].min() < 0:
            raise FieldError(f"custom table {path} needs rows cell,row,col,value[,imag]")
        cells, rows, cols = table[:, :3].astype(int).T
        k = max(rows.max(), cols.max()) + 1
        n = cells.max() + 1
        if len(x) != n:
            raise FieldError(f"custom table {path} lists {n} cells, the grid has {len(x)}")
        vals = np.zeros((n, k, k), dtype=np.complex128 if table.shape[1] > 4 else np.float64)
        if table.shape[1] > 4:
            vals[cells, rows, cols] = table[:, 3] + 1j * table[:, 4]
        else:
            vals[cells, rows, cols] = table[:, 3]
        return vals

    return rule, kind


_RULES = {
    "identity_Q": _rule_identity_q,
    "anisotropic_Q": _rule_anisotropic_q,
    "cross_Q": _rule_cross_q,
    "rotation_V": _rule_rotation_v,
    "upper_triangular_V": _rule_upper_triangular_v,
    "degenerate_V": _rule_degenerate_v,
    "diag_V": _rule_diag_v,
    "coupled_V": _rule_coupled_v,
    "complex_linear_V": _rule_complex_linear_v,
    "custom_table": _rule_custom_table,
}

RULE_NAMES = tuple(sorted(_RULES))


def make_rule(name: str, dim: int, /, **params):
    """Look up a named coefficient rule; returns (callable, kind).

    A parameter the rule does not take is rejected, except m (the component
    count build_problem passes to every potential rule), which only reaches
    the rules that take it.  A parameter whose default is a number takes a
    real number, not a bool: float(True) would run as 1.
    """
    try:
        factory = _RULES[name]
    except KeyError:
        raise FieldError(f"unknown rule {name!r}; known: {', '.join(RULE_NAMES)}") from None
    parameters = inspect.signature(factory).parameters
    accepted = list(parameters)[1:]
    unknown = sorted(set(params) - set(accepted) - {"m"})
    if unknown:
        raise FieldError(
            f"rule {name!r} has no parameter {unknown[0]!r}; it takes: {', '.join(accepted) or 'none'}"
        )
    params = {k: v for k, v in params.items() if k in accepted}
    for key, value in params.items():
        if isinstance(parameters[key].default, (int, float)) and (
                isinstance(value, bool) or not isinstance(value, numbers.Real)):
            raise FieldError(f"rule {name!r} parameter {key!r} takes a number, got {value!r}")
    return factory(dim, **params)
