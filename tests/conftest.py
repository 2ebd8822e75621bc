import numpy as np
import pytest

import vschro.evolve
import vschro.spectral
from vschro.fields import make_rule, sample_field, shift_potential
from vschro.mesh import build_grid


@pytest.fixture
def corrupt_factors(monkeypatch):
    """corrupt_factors(at=None, by=1e-3) makes every factor that evolve or
    spectral builds from then on a corrupted one: its solve number `at`,
    counted over all such factors (every solve, when at is None), returns its
    solution with `by` added to the last column, which misses the
    backward-error rule of evolve.checked_solve.  Returns the list of the
    column count of every solve, in order."""

    def corrupt(at=None, by=1e-3):
        widths, sparse_lu = [], vschro.evolve.sparse_lu

        class CorruptedLU:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                x = self.lu.solve(rhs)
                if at is None or len(widths) == at:
                    x[..., -1] += by
                widths.append(rhs.shape[-1])
                return x

        for module in (vschro.evolve, vschro.spectral):
            monkeypatch.setattr(module, "sparse_lu", lambda matrix: CorruptedLU(sparse_lu(matrix)))
        return widths

    return corrupt


def _table_potential(tmp_path):
    """A complex 2x2 potential from a custom table; cell c repeats cell c - 3."""
    g = build_grid(1, 4.0, 12)
    rows = ["cell,row,col,value,imag"]
    for c in range(g.n_cells):
        rows += [f"{c},0,0,-2.0,{0.5 * (c % 3)}", f"{c},0,1,0.3,0.0",
                 f"{c},1,0,0.0,{0.1 * (c % 3) - 0.1}", f"{c},1,1,-1.5,0.0"]
    path = tmp_path / "table.csv"
    path.write_text("\n".join(rows) + "\n")
    return sample_field(make_rule("custom_table", 1, path=str(path))[0], g, "potential")


def _sampled_potential(rule, dim, n, **params):
    g = build_grid(dim, 6.0, n)
    return shift_potential(sample_field(make_rule(rule, dim, **params)[0], g, "potential"))


# name -> (potential builder, validator alpha); each field repeats its cell matrices
REPEATED_FIELDS = {
    "rotation_2d": (lambda tmp: _sampled_potential("rotation_V", 2, 24, r=1.5), 0.45),
    "degenerate_1d": (lambda tmp: _sampled_potential("degenerate_V", 1, 40), 0.3),
    "complex_table": (_table_potential, 0.45),
}


@pytest.fixture(params=sorted(REPEATED_FIELDS))
def repeated_field(request, tmp_path):
    """(V, alpha) for a potential whose cells share matrices, so that its
    distinct matrices are fewer than its cells."""
    build, alpha = REPEATED_FIELDS[request.param]
    V = build(tmp_path)
    assert len(V.distinct[0]) < V.grid.n_cells
    assert np.iscomplexobj(V.values) == (request.param == "complex_table")
    return V, alpha
