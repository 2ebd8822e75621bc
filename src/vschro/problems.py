"""Assembled problem bundles: coefficients, validator report and operators.

A Problem carries everything the checks and the CLI need for one (Q, V)
configuration: the sampled coefficient fields, the hypothesis report, the
scalar diffusion block D, which the splitting path factors as it is, and,
assembled on first use, the full generator kron(D, I_m) + V.  Shift
normalization is applied here when requested: a potential whose quadratic
form only satisfies <V xi, xi> <= beta |xi|^2 is replaced by V - (beta+1) I,
and the recorded shift lets reports un-rescale by e^{t (1 + shift)} when
comparing against the unshifted dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from vschro.fields import (
    POTENTIAL,
    HypothesisReport,
    MatrixField,
    hermitian_top_eigenvalue,
    make_rule,
    sample_field,
    shift_potential,
    validate_hypotheses,
)
from vschro.mesh import Grid, build_grid
from vschro.operators import (
    SparseOperator,
    assemble_diffusion,
    assemble_potential,
)

__all__ = ["Problem", "build_problem"]


@dataclass
class Problem:
    grid: Grid
    m: int
    Q: MatrixField
    V: MatrixField
    report: HypothesisReport
    diffusion: SparseOperator = field(repr=False)  # scalar block D - I, m = 1

    @cached_property
    def generator(self) -> SparseOperator:
        """kron(D, I_m) + V as one sparse operator.  Splitting runs never read
        it, so it is only built (and held in memory) for the spectral and
        oracle paths."""
        return self.diffusion.on_components(self.m) + assemble_potential(self.V, self.m)

    @property
    def unrescale_rate(self) -> float:
        """Exponential rate e^{t * rate} restoring div(Q grad .) + V_original."""
        return 1.0 + self.V.shift


def build_problem(
    dim: int,
    extent: float,
    n_per_axis: int,
    m: int,
    q_rule: str = "identity_Q",
    q_params: dict | None = None,
    v_rule: str = "diag_V",
    v_params: dict | None = None,
    shift: str = "none",
    alpha: float = 0.0,
) -> Problem:
    """Sample named coefficient rules, optionally shift, validate, assemble.

    shift = "auto" applies the normalization only when the dissipativity
    margin is positive; "none" leaves the potential as sampled.  The margin
    and the shift come from the top eigenvalue of the Hermitian part of V
    alone, so the full validator runs once, on the final potential.
    """
    grid = build_grid(dim, extent, n_per_axis)
    qr, qkind = make_rule(q_rule, dim, **(q_params or {}))
    Q = sample_field(qr, grid, qkind)
    vr, vkind = make_rule(v_rule, dim, **(v_params or {}), m=m)
    V = sample_field(vr, grid, vkind)
    if V.kind != POTENTIAL or V.rows != m:
        raise ValueError(
            f"rule {v_rule!r} gave a {V.rows}x{V.rows} {V.kind} field; m = {m} needs a potential"
        )
    if shift not in ("auto", "none"):
        raise ValueError(f"shift must be 'auto' or 'none', got {shift!r}")
    if shift == "auto":
        lam_max = hermitian_top_eigenvalue(V)
        if lam_max + 1.0 > 1e-12:  # the dissipativity margin the validator reports
            V = shift_potential(V, max(0.0, lam_max))
    return Problem(
        grid=grid, m=m, Q=Q, V=V, report=validate_hypotheses(Q, V, alpha),
        diffusion=assemble_diffusion(Q, grid),
    )
