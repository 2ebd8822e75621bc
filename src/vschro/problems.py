"""Assembled problem bundles: coefficients, validator report and operators.

A Problem holds the sampled Q, V and alpha of one configuration and builds
the rest once, on first read: the hypothesis report, the scalar diffusion
block D and the generator kron(D, I_m) + V.  `validate` reads the report
only; `evolve` and `kernel` read D, `spectrum`, `resolvent` and
`export-operator` the generator, and `verify` validates once, then runs its
checks.  build_problem still makes every refusal at build time.  A shift,
when requested, replaces a potential whose form only satisfies <V xi, xi>
<= beta |xi|^2 by V - (beta+1) I; the recorded shift lets reports
un-rescale by e^{t (1 + shift)} against the unshifted dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from vschro.fields import (
    POTENTIAL,
    HypothesisReport,
    MatrixField,
    admit_alpha,
    hermitian_top_eigenvalue,
    make_rule,
    sample_field,
    shift_potential,
    validate_hypotheses,
)
from vschro.mesh import Grid, build_grid
from vschro.operators import SparseOperator, assemble_diffusion, assemble_potential, checked_faces

__all__ = ["Problem", "build_problem"]


@dataclass
class Problem:
    grid: Grid
    m: int
    Q: MatrixField
    V: MatrixField
    alpha: float

    @cached_property
    def report(self) -> HypothesisReport:
        return validate_hypotheses(self.Q, self.V, self.alpha)

    @cached_property
    def diffusion(self) -> SparseOperator:  # the scalar block D - I, m = 1
        return assemble_diffusion(self.Q, self.grid)

    @cached_property
    def generator(self) -> SparseOperator:
        """kron(D, I_m) + V as one sparse operator."""
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
    """Sample named coefficient rules, optionally shift, and check what Problem builds.

    shift = "auto" applies the normalization only when the dissipativity
    margin is positive; "none" leaves the potential as sampled.  The margin
    and the shift come from the top eigenvalue of the Hermitian part of V
    alone, so the full validator runs at most once, on the final potential.
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
    admit_alpha(alpha)
    checked_faces(Q, grid)
    return Problem(grid=grid, m=m, Q=Q, V=V, alpha=alpha)
