"""Truncated-box grids and discrete L^p structure for m-component fields.

The spatial domain [-R, R]^d (d in {1, 2}) is discretized by N cell-centered
points per axis with an implicit zero ghost layer, i.e. homogeneous Dirichlet
truncation: h = 2R/(N+1) and the cell coordinates are -R + (i+1)h.  Fields
carry one complex value per (cell, component); norms and pairings use the
Euclidean norm over the m components per cell and the cell measure h^d, so
they are discrete surrogates of the L^p(R^d; C^m) norms and of the canonical
dual pairing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "VectorField",
    "build_grid",
    "lp_norm",
    "dual_pairing",
    "write_field_csv",
    "write_field_pgm",
]


class GridError(ValueError):
    """Raised for invalid grid parameters or mismatched grids/fields."""


@dataclass(frozen=True)
class Grid:
    """Cell-centered discretization of [-extent, extent]^dim.

    Flat cell indices run row-major over the axes: in 2D, cell (i0, i1) has
    flat index i0 * n_per_axis + i1.
    """

    dim: int
    extent: float
    n_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise GridError(f"dim must be 1 or 2, got {self.dim}")
        if not self.extent > 0:
            raise GridError(f"extent must be positive, got {self.extent}")
        if self.n_per_axis < 3:
            raise GridError(f"n_per_axis must be >= 3, got {self.n_per_axis}")
        h = self.spacing
        if not (h > 0 and math.isfinite(1.0 / h / h)):  # 1/h^2 scales every stencil
            raise GridError(f"extent = {self.extent!r} is too small for {self.n_per_axis} cells "
                            f"per axis: 1/h^2 overflows at h = {h:.3g}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / (self.n_per_axis + 1)

    @property
    def n_cells(self) -> int:
        return self.n_per_axis**self.dim

    @property
    def cell_measure(self) -> float:
        return self.spacing**self.dim

    @property
    def axis_coords(self) -> np.ndarray:
        """Coordinates along one axis, strictly inside (-R, R)."""
        h = self.spacing
        return -self.extent + h * (1.0 + np.arange(self.n_per_axis))

    def coords(self) -> np.ndarray:
        """Cell centres in R^dim, shape (n_cells, dim), in flat-index order."""
        c = self.axis_coords
        if self.dim == 1:
            return c[:, None]
        x0, x1 = np.meshgrid(c, c, indexing="ij")
        return np.column_stack([x0.ravel(), x1.ravel()])

    def flat_index(self, *ij) -> int:
        if len(ij) != self.dim:
            raise GridError(f"expected {self.dim} indices, got {len(ij)}")
        if self.dim == 1:
            return ij[0]
        return ij[0] * self.n_per_axis + ij[1]

    def center_cell(self) -> int:
        """Flat index of the cell closest to the origin."""
        k = np.argmin(np.abs(self.axis_coords))
        return self.flat_index(*((k,) * self.dim))


@dataclass
class VectorField:
    """m-component complex grid function; values has shape (n_cells, m).

    Immutable after construction: the value array is frozen so fields can be
    shared across concurrent readers.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.grid.n_cells:
            raise GridError(
                f"values must have shape (n_cells={self.grid.n_cells}, m), got {v.shape}"
            )
        if v is self.values and v.flags.writeable:
            v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def components(self) -> int:
        return self.values.shape[1]

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.values.imag == 0.0))

    def __sub__(self, other: "VectorField") -> "VectorField":
        _check_compatible(self, other)
        return VectorField(self.grid, self.values - other.values)


def _check_compatible(f: VectorField, g: VectorField):
    if f.grid != g.grid:
        raise GridError("fields live on different grids")
    if f.components != g.components:
        raise GridError(
            f"component mismatch: {f.components} vs {g.components}"
        )


def build_grid(dim: int, extent: float, n_per_axis: int) -> Grid:
    """Construct the truncated-box grid; see Grid for the layout."""
    return Grid(dim=int(dim), extent=float(extent), n_per_axis=int(n_per_axis))


def lp_norm(f: VectorField, p) -> float:
    """Discrete L^p norm (sum_cells |f(x)|^p h^d)^(1/p); p = inf gives the
    max over cells of the per-cell Euclidean amplitude."""
    return values_lp_norms(f.values, (p,), f.grid.cell_measure)[0]


def values_lp_norms(values: np.ndarray, ps, cell_measure: float) -> list:
    """lp_norm of a raw (n_cells, m) real or complex value array, in either
    memory order, for every p in ps, from one pass over the per-cell
    amplitudes (none for empty ps); each norm equals its single-p value bit
    for bit.

    A cell's amplitude adds |u_j|^2 in component order j = 0, 1, ..., so it
    does not depend on the layout; the sums over cells rely on numpy's
    pairwise summation, so the result is deterministic for fixed data.

    A field whose largest amplitude leaves [2^-240, 2^240] (about 1e-72 to
    1e72), past which the squares and fourth powers of its amplitudes may
    leave float64's normal range, takes the norms of its values scaled by a
    power of two, scaled back: the same bits wherever they are normal (for
    p other than 1, 2 and inf, to pow's rounding).  Data in range is not
    scaled.
    """
    if not len(ps):
        return []
    with np.errstate(over="ignore"):  # a square that overflows is taken again below
        amp = _squared_amplitudes(values)
    k = 0
    if not 2.0 ** -480 <= amp.max(initial=0.0) <= 2.0 ** 480:
        big = float(np.abs(values).max(initial=0.0))
        if 0.0 < big < math.inf:  # not a zero field, nor one with an inf or a nan
            k = math.frexp(big)[1]  # |values| / 2^k < 1, scaled in two exact halves
            amp = _squared_amplitudes(values * 2.0 ** (-k // 2) * 2.0 ** (-k - (-k // 2)))
    np.sqrt(amp, out=amp)
    norms = [_amplitude_lp_norm(amp, p, cell_measure) for p in ps]
    if not k:
        return norms
    with np.errstate(over="ignore"):  # a norm past float64's range is inf
        return [float(np.ldexp(x, k)) for x in norms]


def _squared_amplitudes(values: np.ndarray) -> np.ndarray:
    amp = np.abs(values[:, 0]) ** 2
    for j in range(1, values.shape[1]):
        amp += np.abs(values[:, j]) ** 2
    return amp


def _amplitude_lp_norm(amp: np.ndarray, p, cell_measure: float) -> float:
    if p == math.inf or p == "inf":
        return float(amp.max(initial=0.0))
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    if p == 1.0:
        return float(np.sum(amp) * cell_measure)
    if p == 2.0:
        return float(math.sqrt(np.sum(amp**2) * cell_measure))
    return float((np.sum(amp**p) * cell_measure) ** (1.0 / p))


def dual_pairing(f: VectorField, g: VectorField) -> complex:
    """Discrete dual pairing sum_cells <f(x), conj g(x)> h^d.

    Sesquilinear (conjugate-linear in g); pairing a field with itself gives
    the squared 2-norm.
    """
    _check_compatible(f, g)
    return complex(np.sum(f.values * np.conj(g.values)) * f.grid.cell_measure)


def write_field_csv(f: VectorField, path):
    """Dump a field as CSV rows (axis coords..., component, real, imag)."""
    pts = f.grid.coords()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = [f"x{a}" for a in range(f.grid.dim)] + ["component", "real", "imag"]
        writer.writerow(header)
        for c in range(f.grid.n_cells):
            for k in range(f.components):
                v = f.values[c, k]
                writer.writerow(
                    [f"{x:.17g}" for x in pts[c]] + [k, f"{v.real:.17g}", f"{v.imag:.17g}"]
                )


def write_field_pgm(f: VectorField, component: int, path):
    """8-bit PGM dump of |Re| of one component, min-max scaled.

    1D fields produce a single-row image; useful for quick visual checks.
    """
    vals = f.values[:, component].real
    if f.grid.dim == 1:
        img = vals[None, :]
    else:
        img = vals.reshape(f.grid.n_per_axis, f.grid.n_per_axis)
    lo, hi = float(img.min()), float(img.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pix = np.round((img - lo) * scale).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{pix.shape[1]} {pix.shape[0]}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())
