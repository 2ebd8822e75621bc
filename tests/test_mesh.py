import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vschro.mesh import (
    GridError,
    VectorField,
    build_grid,
    dual_pairing,
    lp_norm,
    values_lp_norms,
    write_field_csv,
    write_field_pgm,
)


def random_field(grid, m, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((grid.n_cells, m)) + 1j * rng.standard_normal((grid.n_cells, m))
    return VectorField(grid, vals)


class TestBuildGrid:
    def test_1d_small(self):
        g = build_grid(1, 1.0, 3)
        assert g.spacing == pytest.approx(0.5)
        np.testing.assert_allclose(g.axis_coords, [-0.5, 0.0, 0.5])

    def test_2d_cells_and_spacing(self):
        g = build_grid(2, 2.0, 4)
        assert g.n_cells == 16
        assert g.spacing == pytest.approx(0.8)

    def test_fine_1d(self):
        g = build_grid(1, 40.0, 799)
        assert g.spacing == pytest.approx(0.1)
        assert g.n_cells == 799

    def test_rejects_bad_dim_and_extent(self):
        with pytest.raises(GridError):
            build_grid(3, 1.0, 8)
        with pytest.raises(GridError):
            build_grid(1, -1.0, 8)
        with pytest.raises(GridError):
            build_grid(1, 1.0, 2)

    def test_invariants(self):
        g = build_grid(2, 3.0, 7)
        pts = g.coords()
        assert pts.shape == (49, 2)
        assert np.all(np.abs(pts) < g.extent)
        # flat indexing is a bijection
        seen = {tuple(np.round(p, 12)) for p in pts}
        assert len(seen) == g.n_cells
        assert g.spacing * (g.n_per_axis + 1) == pytest.approx(2 * g.extent, rel=1e-15)
        assert g.flat_index(*divmod(17, g.n_per_axis)) == 17


class TestNorms:
    def test_constant_field_l2(self):
        g = build_grid(1, 1.0, 3)
        f = VectorField(g, np.tile([1.0, 0.0], (3, 1)))
        assert lp_norm(f, 2) == pytest.approx(math.sqrt(3 * 0.5))

    def test_zero_iff_zero(self):
        g = build_grid(1, 2.0, 8)
        z = VectorField(g, np.zeros((8, 2)))
        assert lp_norm(z, 1) == 0.0
        f = random_field(g, 2)
        assert lp_norm(f, 3.5) > 0.0

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(min_value=1e-3, max_value=1e3), p=st.sampled_from([1.0, 2.0, 4.0, math.inf]))
    def test_homogeneity(self, scale, p):
        g = build_grid(1, 2.0, 16)
        f = random_field(g, 2, seed=5)
        assert lp_norm(VectorField(g, scale * f.values), p) == pytest.approx(scale * lp_norm(f, p), rel=1e-12)

    def test_rejects_p_below_one(self):
        g = build_grid(1, 1.0, 4)
        with pytest.raises(ValueError):
            lp_norm(random_field(g, 1), 0.5)

    @staticmethod
    def one_p_norm(values, p, measure):
        """One norm from its own amplitude pass: the per-p loop the shared
        amplitude pass replaced."""
        amp = np.sqrt(np.sum(np.abs(values) ** 2, axis=1))
        if p == math.inf or p == "inf":
            return float(amp.max(initial=0.0))
        p = float(p)
        if p == 1.0:
            return float(np.sum(amp) * measure)
        if p == 2.0:
            return float(math.sqrt(np.sum(amp**2) * measure))
        return float((np.sum(amp**p) * measure) ** (1.0 / p))

    @pytest.mark.parametrize("data", ["real", "complex"])
    def test_one_amplitude_pass_matches_per_p_norms(self, data):
        g = build_grid(2, 3.0, 17)
        f = random_field(g, 3, seed=11)
        values = f.values.real.copy() if data == "real" else f.values
        ps = (1, 2, 4, math.inf, 3.5, "inf", 1.0)
        ref = [self.one_p_norm(values, p, g.cell_measure) for p in ps]
        assert values_lp_norms(values, ps, g.cell_measure) == ref
        assert [values_lp_norms(values, (p,), g.cell_measure)[0] for p in ps] == ref
        assert values_lp_norms(values, (), g.cell_measure) == []
        with pytest.raises(ValueError):
            values_lp_norms(values, (2, 0.5), g.cell_measure)

    def test_norm_squared_equals_self_pairing(self):
        g = build_grid(1, 3.0, 16)
        f = random_field(g, 3, seed=7)
        pair = dual_pairing(f, f)
        assert pair.imag == pytest.approx(0.0, abs=1e-14)
        assert pair.real == pytest.approx(lp_norm(f, 2) ** 2, rel=1e-13)

    def test_refinement_converges_at_second_order(self):
        # smooth profile flat at the boundary: norm error is O(h^2);
        # exact value: int_{-2}^{2} (1 - (x/2)^2)^4 dx = 512/315
        exact = math.sqrt(512.0 / 315.0)
        errs = []
        for n in (64, 128, 256):
            g = build_grid(1, 2.0, n)
            x = g.axis_coords
            vals = ((1.0 - (x / 2.0) ** 2) ** 2)[:, None]
            errs.append(abs(lp_norm(VectorField(g, vals), 2) - exact))
        # at least second order: each doubling shrinks the error by >= 4 (up to slack)
        assert errs[1] <= errs[0] / 3.5
        assert errs[2] <= errs[1] / 3.5


class TestPairing:
    def test_indicator(self):
        g = build_grid(1, 2.0, 39)  # h = 0.1
        assert g.spacing == pytest.approx(0.1)
        vals = np.zeros((39, 1))
        vals[7, 0] = 1.0
        f = VectorField(g, vals)
        assert dual_pairing(f, f) == pytest.approx(0.1)

    def test_mismatched_grids_rejected(self):
        f = random_field(build_grid(1, 2.0, 10), 2)
        g2 = random_field(build_grid(1, 2.0, 12), 2)
        with pytest.raises(GridError):
            dual_pairing(f, g2)

    def test_orthogonal_supports(self):
        g = build_grid(1, 2.0, 10)
        a = np.zeros((10, 2))
        b = np.zeros((10, 2))
        a[:5, 0] = 1.0
        b[5:, 1] = 1.0
        assert dual_pairing(VectorField(g, a), VectorField(g, b)) == 0.0

    def test_sesquilinear(self):
        g = build_grid(1, 1.0, 12)
        f, gfld, h = (random_field(g, 2, seed=k) for k in (1, 2, 3))
        z = 0.7 - 0.3j
        lhs = dual_pairing(VectorField(g, z * f.values + h.values), gfld)
        rhs = z * dual_pairing(f, gfld) + dual_pairing(h, gfld)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert dual_pairing(f, VectorField(g, z * gfld.values)) == pytest.approx(
            np.conj(z) * dual_pairing(f, gfld), rel=1e-12
        )

    def test_diffusion_block_selfadjoint_in_pairing(self):
        from vschro.fields import make_rule, sample_field
        from vschro.operators import assemble_diffusion

        g = build_grid(1, 2.0, 8)
        Q = sample_field(make_rule("identity_Q", 1)[0], g, "diffusion")
        A = assemble_diffusion(Q, g).on_components(2)
        f, gfld = random_field(g, 2, seed=4), random_field(g, 2, seed=9)
        Af = VectorField(g, (A.matrix @ f.values.ravel()).reshape(8, 2))
        Ag = VectorField(g, (A.matrix @ gfld.values.ravel()).reshape(8, 2))
        lhs = dual_pairing(Af, gfld)
        rhs = dual_pairing(f, Ag)
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)
        # oracle: dense transpose comparison
        dense = A.matrix.toarray()
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_hoelder(self, p):
        g = build_grid(1, 2.0, 32)
        pd = math.inf if p == 1.0 else p / (p - 1.0)
        for seed in range(5):
            f = random_field(g, 2, seed=seed)
            gfld = random_field(g, 2, seed=seed + 100)
            bound = lp_norm(f, p) * lp_norm(gfld, pd)
            assert abs(dual_pairing(f, gfld)) <= bound * (1 + 1e-12)


class TestFieldType:
    def test_shape_guard(self):
        g = build_grid(1, 1.0, 5)
        with pytest.raises(GridError):
            VectorField(g, np.zeros((4, 2)))

    def test_real_flag(self):
        g = build_grid(1, 1.0, 5)
        assert VectorField(g, np.ones((5, 2))).is_real
        assert not VectorField(g, 1j * np.ones((5, 2))).is_real

    def test_values_frozen(self):
        g = build_grid(1, 1.0, 5)
        f = VectorField(g, np.ones((5, 2)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0


def read_csv_values(path, grid):
    """Parse write_field_csv output back into a (n_cells, m) array.

    The cell of each row follows from its axis coordinates, which must sit
    on the grid's cell centres.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    d = grid.dim
    assert rows[0] == [f"x{a}" for a in range(d)] + ["component", "real", "imag"]
    x = np.array([[float(t) for t in r[:d]] for r in rows[1:]])
    idx = np.rint((x + grid.extent) / grid.spacing - 1.0).astype(int)
    np.testing.assert_allclose(grid.axis_coords[idx], x, rtol=0, atol=1e-12)
    cell = np.ravel_multi_index(tuple(idx.T), (grid.n_per_axis,) * d)
    comp = np.array([int(r[d]) for r in rows[1:]])
    vals = np.zeros((grid.n_cells, comp.max() + 1), dtype=complex)
    vals[cell, comp] = [complex(float(r[d + 1]), float(r[d + 2])) for r in rows[1:]]
    return vals


class TestSerialization:
    def test_csv_roundtrip(self, tmp_path):
        g = build_grid(2, 1.5, 4)
        f = random_field(g, 2, seed=3)
        path = tmp_path / "field.csv"
        write_field_csv(f, path)
        np.testing.assert_allclose(read_csv_values(path, g), f.values, rtol=1e-12)

    def test_csv_roundtrip_2d_any_row_order(self, tmp_path):
        g = build_grid(2, 2.5, 17)
        f = random_field(g, 3, seed=11)
        path = tmp_path / "field.csv"
        write_field_csv(f, path)
        lines = path.read_text().splitlines()
        body = lines[1:]
        np.random.default_rng(0).shuffle(body)
        path.write_text("\n".join([lines[0]] + body) + "\n")
        np.testing.assert_array_equal(read_csv_values(path, g), f.values)

    def test_pgm_bytes(self, tmp_path):
        g = build_grid(2, 1.0, 5)
        f = random_field(g, 1, seed=8)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_field_pgm(f, 0, p1)
        write_field_pgm(f, 0, p2)
        raw = p1.read_bytes()
        assert raw.startswith(b"P5\n5 5\n255\n")
        assert raw == p2.read_bytes()
