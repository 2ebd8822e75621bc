import dataclasses
import math

import numpy as np
import pytest

from vschro.fields import (
    BranchCutError,
    FieldError,
    HypothesisReport,
    MatrixField,
    _balakrishnan_power,
    _eig_power,
    cell_gradient,
    hermitian_top_eigenvalue,
    make_rule,
    matrix_exp,
    distinct_matrix_powers,
    sample_field,
    shift_potential,
    validate_hypotheses,
)
from vschro.mesh import build_grid
from vschro.problems import build_problem

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def taylor_expm(M, terms=60):
    """Oracle: plain Taylor series at a scaled argument, then squaring."""
    M = np.asarray(M, dtype=complex)
    s = max(0, int(math.ceil(math.log2(max(np.abs(M).sum(axis=0).max(), 1e-30)))) + 2)
    A = M / 2.0**s
    out = np.eye(M.shape[0], dtype=complex)
    term = np.eye(M.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ A / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def identity_q(grid):
    return sample_field(make_rule("identity_Q", grid.dim)[0], grid, "diffusion")


class TestSampling:
    def test_identity_diffusion(self):
        g = build_grid(2, 1.0, 4)
        Q = identity_q(g)
        assert Q.values.shape == (16, 2, 2)
        np.testing.assert_allclose(Q.values, np.broadcast_to(np.eye(2), (16, 2, 2)))

    def test_rotation_potential_values(self):
        g = build_grid(1, 2.0, 7)
        V = sample_field(make_rule("rotation_V", 1, r=1.5)[0], g, "potential")
        x = g.axis_coords
        expected = (1.0 + np.abs(x) ** 1.5)[:, None, None] * J
        np.testing.assert_allclose(V.values, expected, rtol=1e-14)

    def test_degenerate_potential_values(self):
        g = build_grid(1, 2.0, 5)
        V = sample_field(make_rule("degenerate_V", 1)[0], g, "potential")
        x = g.axis_coords
        base = np.array([[-1.0, 1.0], [1.0, -1.0]])
        np.testing.assert_allclose(V.values, np.abs(x)[:, None, None] * base)

    def test_symmetry_enforced_for_diffusion(self):
        g = build_grid(2, 1.0, 4)
        asym = np.array([[1.0, 0.1], [0.0, 1.0]])
        with pytest.raises(FieldError, match="symmetry defect"):
            sample_field(lambda x: np.broadcast_to(asym, (len(x), 2, 2)), g, "diffusion")

    def test_nonfinite_rejected(self):
        g = build_grid(1, 1.0, 4)
        with pytest.raises(FieldError, match="non-finite"):
            sample_field(lambda x: np.full((len(x), 1, 1), np.inf), g, "potential")

    def test_anisotropic_q_eigenvalues(self):
        g = build_grid(2, 1.0, 4)
        Q = sample_field(make_rule("anisotropic_Q", 2, theta=0.6, ratio=0.25)[0], g, "diffusion")
        eigs = np.linalg.eigvalsh(Q.values[0])
        np.testing.assert_allclose(sorted(eigs), [0.25, 1.0], atol=1e-14)

    def test_custom_table_rule(self, tmp_path):
        g = build_grid(1, 1.0, 4)
        rows = ["cell,row,col,value"]
        for c in range(4):
            rows += [f"{c},0,0,{-1.0 - c}", f"{c},0,1,{0.5 * c}", f"{c},1,0,0.0", f"{c},1,1,-2.0"]
        path = tmp_path / "table.csv"
        path.write_text("\n".join(rows) + "\n")
        V = sample_field(make_rule("custom_table", 1, path=str(path))[0], g, "potential")
        np.testing.assert_allclose(V.values[2], [[-3.0, 1.0], [0.0, -2.0]])

    def test_unknown_rule_rejected(self):
        with pytest.raises(FieldError):
            make_rule("bogus_rule", 1)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(FieldError, match="rule 'diag_V' has no parameter 'C'; it takes: c, m"):
            make_rule("diag_V", 1, C=1.0)
        with pytest.raises(FieldError, match="no parameter 'zz'; it takes: none"):
            make_rule("identity_Q", 1, zz=1.0)

    def test_component_count_reaches_only_rules_that_take_it(self):
        g = build_grid(1, 2.0, 5)
        V = sample_field(make_rule("diag_V", 1, c=-2.0, m=3)[0], g, "potential")
        assert V.rows == 3
        W = sample_field(make_rule("rotation_V", 1, r=1.5, m=2)[0], g, "potential")
        assert W.rows == 2

    def test_complex_diffusion_is_made_real_or_refused(self):
        """Q is real: a zero imaginary part is dropped, any other refused."""
        g = build_grid(1, 1.0, 4)
        vals = np.full((4, 1, 1), 2.0 + 0.0j)
        Q = MatrixField(g, "diffusion", vals)
        assert Q.values.dtype == np.float64 and np.all(Q.values == 2.0)
        vals[2] += 0.5j
        with pytest.raises(FieldError, match="must be real, got imaginary parts up to 5.000e-01"):
            MatrixField(g, "diffusion", vals)


class TestMatrixExp:
    def test_zero_gives_identity(self):
        np.testing.assert_allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_gives_exact_identity(self, k, dtype):
        E = matrix_exp(np.zeros((k, k), dtype=dtype))
        assert E.dtype == np.dtype(dtype) and np.array_equal(E, np.eye(k))
        batch = matrix_exp(np.zeros((2, 3, k, k), dtype=dtype))
        assert np.array_equal(batch, np.broadcast_to(np.eye(k), (2, 3, k, k)))

    @pytest.mark.parametrize("k", [2, 3])
    def test_zero_cell_in_a_mixed_batch(self, k):
        # the zero cell gets the exact identity; every other cell is what the
        # batch without it gives, bit for bit (a zero cell leaves the scaling
        # power unchanged)
        rng = np.random.default_rng(20 + k)
        batch = rng.standard_normal((7, k, k))
        batch[3] = 0.0
        batch[5, 0, 0] = 0.0  # zero entries alone do not make a zero cell
        E = matrix_exp(batch)
        assert np.array_equal(E[3], np.eye(k))
        rest = [0, 1, 2, 4, 5, 6]
        np.testing.assert_array_equal(E[rest], matrix_exp(batch[rest]))

    def test_empty_batch(self):
        assert matrix_exp(np.zeros((0, 2, 2))).shape == (0, 2, 2)

    def test_rotation_closed_form(self):
        th = 0.83
        E = matrix_exp(th * np.array([[0.0, 1.0], [-1.0, 0.0]]))
        expected = np.array([[math.cos(th), math.sin(th)], [-math.sin(th), math.cos(th)]])
        np.testing.assert_allclose(E, expected, atol=1e-14)

    def test_against_taylor_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            M = rng.standard_normal((3, 3)) * rng.uniform(0.1, 10.0)
            E = matrix_exp(M)
            ref = taylor_expm(M)
            assert np.abs(E - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_inverse_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            M = rng.standard_normal((4, 4))
            M *= 5.0 / max(np.abs(M).sum(axis=0).max(), 1e-30)
            prod = matrix_exp(M) @ matrix_exp(-M)
            assert np.abs(prod - np.eye(4)).max() < 1e-10

    def test_batched_matches_single(self):
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((11, 2, 2))
        E = matrix_exp(batch)
        for i in (0, 5, 10):
            np.testing.assert_allclose(E[i], matrix_exp(batch[i]), atol=1e-13)

    def test_chunked_batch_bit_identical(self):
        # one Pade evaluation of the whole batch is the reference: chunking
        # under the batch's scaling power must not change a bit
        from vschro.fields import _EXP_CHUNK, _pade13_squared

        rng = np.random.default_rng(12)
        shape = (2 * _EXP_CHUNK + 8, 2, 2)
        batch = 30.0 * rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        E = matrix_exp(batch.reshape(2, -1, 2, 2))
        s = max(0, int(np.ceil(np.log2(np.abs(batch).sum(axis=1).max()))) + 1)
        np.testing.assert_array_equal(E.reshape(batch.shape), _pade13_squared(batch / 2.0**s, s))

    def test_overflow_rejected(self):
        with pytest.raises(FieldError):
            matrix_exp(np.eye(2) * 2e8)

    def test_contractivity_witness(self):
        # antisymmetric plus -I: the step has 2-norm exactly e^{-tau}
        g = build_grid(1, 4.0, 32)
        V = shift_potential(sample_field(make_rule("rotation_V", 1, r=1.0)[0], g, "potential"))
        for tau in (0.05, 0.3, 1.0):
            E = matrix_exp(tau * V.values)
            norms = np.linalg.svd(E, compute_uv=False)[:, 0]
            np.testing.assert_allclose(norms, math.exp(-tau), atol=1e-10)


def matrix_power(M, z):
    """Principal power M^z of one matrix, through a field on the smallest grid
    (three cells, all equal to -M, which distinct_matrix_powers negates exactly)."""
    neg = -np.asarray(M)
    cells = MatrixField(build_grid(1, 1.0, 3), "potential", np.broadcast_to(neg, (3,) + neg.shape))
    return distinct_matrix_powers(cells, z)[0]


class TestMatrixPower:
    def test_identity_any_exponent(self):
        for z in (0.5, -0.25, 2.0 + 1.0j, 3j):
            np.testing.assert_allclose(matrix_power(np.eye(3), z), np.eye(3), atol=1e-14)

    def test_rotation_scalar_prefactor(self):
        # (1+|x|^r)^{-alpha} factors out of the antisymmetric block
        r, alpha, x = 1.5, 0.45, 1.0
        phi = 1.0 + abs(x) ** r
        M = phi * J.T  # -V(x) for the rotation potential
        lhs = matrix_power(M, -alpha)
        rhs = phi ** (-alpha) * matrix_power(J.T, -alpha)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_imaginary_power_bound_rotation(self):
        g = build_grid(1, 8.0, 101)
        V = sample_field(make_rule("rotation_V", 1, r=1.5)[0], g, "potential")
        for s in (1.0, -1.0, 3.0, -3.0):
            P = distinct_matrix_powers(V, 1j * s)  # the sup over cells is over these
            sup = np.linalg.svd(P, compute_uv=False)[:, 0].max()
            assert sup <= math.exp(math.pi * abs(s) / 2.0) * (1 + 1e-12)

    def test_additivity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            M = rng.standard_normal((3, 3))
            M = M @ M.T + 3.0 * np.eye(3)  # spectrum in the right half-plane
            for z1, z2 in ((0.3, -0.7), (0.5j, 0.25), (-0.2, -0.3)):
                lhs = matrix_power(M, z1) @ matrix_power(M, z2)
                rhs = matrix_power(M, z1 + z2)
                assert np.abs(lhs - rhs).max() < 1e-8 * max(1.0, np.abs(rhs).max())

    def test_branch_cut_rejected(self):
        with pytest.raises(BranchCutError):
            matrix_power(np.diag([1.0, -2.0]), -0.3)
        with pytest.raises(BranchCutError):
            matrix_power(np.diag([0.0, 1.0]), -0.3)

    def test_quadrature_route_agrees_with_eig(self):
        rng = np.random.default_rng(5)
        for alpha in (0.05, 0.25, 0.45, 0.9):
            M = rng.standard_normal((3, 3))
            M = M @ M.T + 2.0 * np.eye(3)
            diff = np.abs(matrix_power(M, -alpha) - _balakrishnan_power(M, alpha)).max()
            assert diff < 1e-8

    def test_defective_matrix_real_exponent(self):
        # Jordan block at 1: M^a = [[1, a], [0, 1]] in closed form
        M = np.array([[1.0, 1.0], [0.0, 1.0]])
        out = matrix_power(M, -0.3)
        np.testing.assert_allclose(out, [[1.0, -0.3], [0.0, 1.0]], atol=1e-8)

    def test_ill_conditioned_eigenbasis_takes_quadrature_route(self):
        # [[1, 1], [0, 1 + e]] has eigenvectors (1, 0) and (1, e): cond_2 ~ 2/e.
        g = build_grid(1, 1.0, 6)
        eps = np.array([1e-1, 1e-3, 1e-9, 1e-10, 1e-11, 1e-12])
        M = np.zeros((6, 2, 2))
        M[:, 0, 0], M[:, 0, 1], M[:, 1, 1] = 1.0, 1.0, 1.0 + eps
        _, ok = _eig_power(M.astype(np.complex128), -0.3)
        cond2 = np.linalg.cond(np.linalg.eig(M)[1])
        assert not ok[cond2 > 1e8].any() and ok[:2].all() and not ok[2:].any()
        V = MatrixField(g, "potential", -M)
        out = distinct_matrix_powers(V, -0.3)[V.distinct[1]]
        np.testing.assert_array_equal(out[~ok], _balakrishnan_power(M[~ok], 0.3))
        jordan = np.array([[1.0, -0.3], [0.0, 1.0]])  # the e -> 0 limit, as in the test below
        np.testing.assert_allclose(out[2:], np.broadcast_to(jordan, (4, 2, 2)), atol=1e-8)

    def test_defective_matrix_complex_power_rejected(self):
        M = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(FieldError):
            matrix_power(M, 1j)


class TestValidator:
    def test_rotation_shifted(self):
        g = build_grid(1, 8.0, 200)
        V = shift_potential(sample_field(make_rule("rotation_V", 1, r=1.5)[0], g, "potential"))
        rep = validate_hypotheses(identity_q(g), V, 0.45)
        assert rep.eta1 == pytest.approx(1.0)
        assert rep.eta2 == pytest.approx(1.0)
        assert rep.dissipativity_margin <= 1e-12
        assert np.isfinite(rep.growth_sup)

    def test_upper_triangular_margin_grows_with_extent(self):
        margins = []
        for R in (20.0, 40.0):
            g = build_grid(1, R, 200)
            V = sample_field(make_rule("upper_triangular_V", 1)[0], g, "potential")
            rep = validate_hypotheses(identity_q(g), V, 0.0)
            margins.append(rep.dissipativity_margin)
            # sym part of [[0, x], [0, 0]] has top eigenvalue |x|/2
            assert rep.dissipativity_margin == pytest.approx(R / 2.0 + 1.0, rel=0.02)
        assert margins[1] > margins[0]

    def test_diagonal_baseline(self):
        g = build_grid(1, 4.0, 50)
        V = sample_field(make_rule("diag_V", 1, c=-1.0, m=2)[0], g, "potential")
        rep = validate_hypotheses(identity_q(g), V, 0.0)
        assert rep.dissipativity_margin == pytest.approx(0.0, abs=1e-13)
        np.testing.assert_allclose([rep.kappa_min, rep.kappa_max], 1.0)
        assert rep.offdiag_min == 0.0

    def test_growth_sup_infinite_on_branch_cut(self):
        g = build_grid(1, 4.0, 50)
        V = sample_field(make_rule("upper_triangular_V", 1)[0], g, "potential")
        rep = validate_hypotheses(identity_q(g), V, 0.3)
        assert rep.growth_sup == np.inf

    def test_jordan_block_potential_takes_quadrature_route(self):
        # coupled_V with c = 0 is one Jordan block, [[-2, 1], [0, -2]]: its
        # eigenbasis is singular, so the power and a finite growth_sup come
        # only from the quadrature route (without it growth_sup is inf)
        p = build_problem(1, 8.0, 64, 2, v_rule="coupled_V",
                          v_params={"a": -2.0, "b": 1.0, "c": 0.0}, alpha=0.3)
        _, ok = _eig_power(-p.V.values[:1].astype(np.complex128), -0.3)
        assert not ok.any()
        assert p.report.growth_sup == 0.0  # V is constant, so D_jV = 0

    def test_alpha_domain(self):
        g = build_grid(1, 4.0, 50)
        V = sample_field(make_rule("diag_V", 1, c=-1.0, m=2)[0], g, "potential")
        with pytest.raises(ValueError):
            validate_hypotheses(identity_q(g), V, 0.5)

    def test_shift_bookkeeping(self):
        g = build_grid(1, 4.0, 50)
        V = sample_field(make_rule("rotation_V", 1, r=1.0)[0], g, "potential")
        rep = validate_hypotheses(identity_q(g), V, 0.45)
        assert rep.shift_beta == pytest.approx(0.0, abs=1e-12)  # antisymmetric form
        assert rep.dissipativity_margin == pytest.approx(1.0, abs=1e-12)
        shifted = shift_potential(V, rep.shift_beta)
        assert shifted.shift == pytest.approx(1.0)
        rep2 = validate_hypotheses(identity_q(g), shifted, 0.45)
        assert rep2.dissipativity_margin <= 1e-12


def _assert_same_report(rep, ref):
    """Every field of the two reports agrees, bit for bit."""
    assert report_bytes(rep) == report_bytes(ref)


class TestSinglePass:
    def test_auto_shift_validates_once(self, monkeypatch):
        import vschro.problems

        calls = []

        def counting(*args):
            calls.append(args)
            return validate_hypotheses(*args)

        monkeypatch.setattr(vschro.problems, "validate_hypotheses", counting)
        p = build_problem(1, 8.0, 64, 2, v_rule="rotation_V", v_params={"r": 1.5},
                          shift="auto", alpha=0.45)
        assert calls == []  # the report is built on first read
        report = p.report
        assert len(calls) == 1 and calls[0][1] is p.V and calls[0][2] == 0.45 and p.V.shift == 1.0
        assert p.report is report and len(calls) == 1

    @pytest.mark.parametrize("kwargs, match", [
        ({"alpha": 0.7}, r"alpha must lie in \[0, 0.5\), got 0.7"),
        ({"extent": 3e-153}, "the diffusion stencil overflows"),
        ({"q_rule": "anisotropic_Q", "q_params": {"ratio": -1.0}}, "face-averaged Q has eta1"),
    ], ids=["alpha", "stencil_overflow", "face_ellipticity"])
    def test_refused_at_build_without_validating_or_assembling(self, monkeypatch, kwargs, match):
        import vschro.problems

        for name in ("validate_hypotheses", "assemble_diffusion"):
            monkeypatch.setattr(vschro.problems, name, None)  # a call would be a TypeError
        with pytest.raises(ValueError, match=match):
            build_problem(**{"dim": 1, "extent": 8.0, "n_per_axis": 64, "m": 2, **kwargs})

    @pytest.mark.parametrize("dim, n", [(1, 2000), (2, 96)], ids=["1d", "2d"])
    def test_growth_equals_the_matmul_reference(self, dim, n):
        # the validator sums over the inner index, chunk by chunk (2D: 9216
        # cells, three chunks); the reference is one @ over every cell
        p = build_problem(dim, 6.0, n, 2, v_rule="rotation_V", v_params={"r": 1.5}, shift="auto",
                          alpha=0.45)
        P = distinct_matrix_powers(p.V, -0.45)[p.V.distinct[1]]
        prod = cell_gradient(p.grid, p.V.values).astype(np.complex128) @ P[:, None, :, :]
        ref = float(np.sqrt((np.abs(prod) ** 2).sum(axis=(-2, -1))).max())
        assert np.isfinite(ref) and p.report.growth_sup == ref

    @pytest.mark.parametrize("dim, n, v_rule, v_params, alpha, shifted", [
        (1, 200, "rotation_V", {"r": 1.5}, 0.45, True),
        (2, 24, "rotation_V", {"r": 1.5}, 0.45, True),
        (1, 200, "degenerate_V", {}, 0.0, True),
        (2, 24, "degenerate_V", {}, 0.3, True),
        (1, 200, "diag_V", {"c": -2.0}, 0.2, False),  # margin -1: auto leaves it as sampled
    ], ids=["rotation_1d", "rotation_2d", "degenerate_1d", "degenerate_2d", "no_shift_needed"])
    def test_report_equals_validation_of_shifted_potential(self, dim, n, v_rule, v_params, alpha,
                                                           shifted):
        p = build_problem(dim, 6.0, n, 2, v_rule=v_rule, v_params=v_params, shift="auto",
                          alpha=alpha)
        raw = sample_field(make_rule(v_rule, dim, **v_params, m=2)[0], p.grid, "potential")
        V = shift_potential(raw) if shifted else raw
        assert p.V.shift == V.shift == (1.0 + max(0.0, hermitian_top_eigenvalue(raw))) * shifted
        np.testing.assert_array_equal(p.V.values, V.values)
        _assert_same_report(p.report, validate_hypotheses(p.Q, V, alpha))

    @pytest.mark.parametrize("dim, v_rule", [(1, "rotation_V"), (2, "rotation_V"),
                                             (1, "complex_linear_V")])
    def test_alpha_zero_growth_equals_identity_product(self, dim, v_rule):
        g = build_grid(dim, 4.0, 40)
        V = sample_field(make_rule(v_rule, dim)[0], g, "potential")
        gradV = cell_gradient(g, V.values)
        assert np.abs(gradV).max() > 0.0
        ident = np.broadcast_to(np.eye(V.rows, dtype=np.complex128), V.values.shape)
        prod = gradV.astype(np.complex128) @ ident[:, None, :, :]
        ref = float(np.sqrt((np.abs(prod) ** 2).sum(axis=(-2, -1))).max())
        assert validate_hypotheses(identity_q(g), V, 0.0).growth_sup == ref


def slice_matrix_field_gradient(grid, values):
    """Reference: centred differences of (n_cells, r, c) matrix data, built
    from explicit slices per axis, one-sided at the boundary layer."""
    N, h = grid.n_per_axis, grid.spacing
    if grid.dim == 1:
        v = values
        g = np.empty((N, 1) + v.shape[1:], dtype=v.dtype)
        g[1:-1, 0] = (v[2:] - v[:-2]) / (2.0 * h)
        g[0, 0] = (v[1] - v[0]) / h
        g[-1, 0] = (v[-1] - v[-2]) / h
        return g
    v = values.reshape((N, N) + values.shape[1:])
    g = np.empty((N, N, 2) + v.shape[2:], dtype=v.dtype)
    for axis in range(2):
        lo, mid, hi = [slice(None)] * 2, [slice(None)] * 2, [slice(None)] * 2
        mid[axis], lo[axis], hi[axis] = slice(1, -1), slice(0, 1), slice(-1, None)
        up, dn = [slice(None)] * 2, [slice(None)] * 2
        up[axis], dn[axis] = slice(2, None), slice(0, -2)
        g[tuple(mid) + (axis,)] = (v[tuple(up)] - v[tuple(dn)]) / (2.0 * h)
        first, second = [slice(None)] * 2, [slice(None)] * 2
        first[axis], second[axis] = slice(0, 1), slice(1, 2)
        g[tuple(lo) + (axis,)] = (v[tuple(second)] - v[tuple(first)]) / h
        last, prev = [slice(None)] * 2, [slice(None)] * 2
        last[axis], prev[axis] = slice(-1, None), slice(-2, -1)
        g[tuple(hi) + (axis,)] = (v[tuple(last)] - v[tuple(prev)]) / h
    return g.reshape((grid.n_cells, 2) + values.shape[1:])


def roll_grid_function_gradient(grid, values):
    """Reference: centred differences of (n_cells, m) data through np.roll,
    with the wrapped boundary layer overwritten by one-sided differences."""
    N, h = grid.n_per_axis, grid.spacing
    m = values.shape[1]
    if grid.dim == 1:
        g = np.empty((N, 1, m), dtype=values.dtype)
        g[1:-1, 0] = (values[2:] - values[:-2]) / (2.0 * h)
        g[0, 0] = (values[1] - values[0]) / h
        g[-1, 0] = (values[-1] - values[-2]) / h
        return g
    v = values.reshape(N, N, m)
    g = np.empty((N, N, 2, m), dtype=values.dtype)
    for axis in range(2):
        g[..., axis, :] = (np.roll(v, -1, axis=axis) - np.roll(v, 1, axis=axis)) / (2.0 * h)
        if axis == 0:
            g[0, :, axis, :] = (v[1] - v[0]) / h
            g[-1, :, axis, :] = (v[-1] - v[-2]) / h
        else:
            g[:, 0, axis, :] = (v[:, 1] - v[:, 0]) / h
            g[:, -1, axis, :] = (v[:, -1] - v[:, -2]) / h
    return g.reshape(N * N, 2, m)


class TestGradient:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [3, 4, 17])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_bitwise_equal_to_both_reference_stencils(self, dim, n, m, dtype):
        g = build_grid(dim, 2.3, n)
        rng = np.random.default_rng(7 * n + m)
        raw = rng.standard_normal((2, g.n_cells, m, m))
        data = (raw[0] + 1j * raw[1]).astype(dtype) if dtype == np.complex128 else raw[0]
        matrix_grad = cell_gradient(g, data)
        ref = slice_matrix_field_gradient(g, data)
        assert matrix_grad.shape == ref.shape == (g.n_cells, dim, m, m)
        assert matrix_grad.dtype == ref.dtype and matrix_grad.tobytes() == ref.tobytes()
        column = np.ascontiguousarray(data[:, :, 0])
        vector_grad = cell_gradient(g, column)
        ref = roll_grid_function_gradient(g, column)
        assert vector_grad.shape == ref.shape == (g.n_cells, dim, m)
        assert vector_grad.dtype == ref.dtype and vector_grad.tobytes() == ref.tobytes()

    def test_matrix_field_gradient_centered(self):
        g = build_grid(1, 2.0, 200)
        x = g.axis_coords
        vals = np.zeros((200, 1, 1))
        vals[:, 0, 0] = np.sin(x)
        M = MatrixField(g, "potential", vals)
        grad = cell_gradient(M.grid, M.values)
        err = np.abs(grad[5:-5, 0, 0, 0] - np.cos(x[5:-5])).max()
        assert err < 1e-4  # O(h^2), h ~ 0.02

    def test_gradient_2d_axes(self):
        g = build_grid(2, 1.5, 24)
        pts = g.coords()
        vals = (pts[:, 0] ** 2 + 3.0 * pts[:, 1])[:, None, None]
        M = MatrixField(g, "potential", vals)
        grad = cell_gradient(M.grid, M.values)
        inner = (np.abs(pts) < 1.2).all(axis=1)
        np.testing.assert_allclose(grad[inner, 0, 0, 0], 2.0 * pts[inner, 0], atol=1e-10)
        np.testing.assert_allclose(grad[inner, 1, 0, 0], 3.0, atol=1e-10)


def per_cell_power(V, z):
    """distinct_matrix_powers computed over every cell, without V.distinct."""
    A = (-V.values).astype(np.complex128)
    res, ok = _eig_power(A, complex(z))
    if not ok.all():
        res[~ok] = _balakrishnan_power(A[~ok], -complex(z).real)
    return res


def per_cell_report(Q, V, alpha):
    """validate_hypotheses computed over every cell, without Q.distinct or
    V.distinct."""
    qeigs = np.linalg.eigvalsh(0.5 * (Q.values + Q.values.transpose(0, 2, 1)))
    vsym = 0.5 * (V.values + np.conj(V.values.transpose(0, 2, 1)))
    lam_max = float(np.linalg.eigvalsh(vsym)[:, -1].max())
    prod = cell_gradient(V.grid, V.values)
    if alpha > 0.0:
        prod = prod.astype(np.complex128) @ per_cell_power(V, -alpha)[:, None, :, :]
    off = ~np.eye(V.rows, dtype=bool)
    kappa = np.linalg.svd(V.values, compute_uv=False)[:, -1]
    return HypothesisReport(
        eta1=float(qeigs[:, 0].min()),
        eta2=float(qeigs[:, -1].max()),
        dissipativity_margin=lam_max + 1.0,
        alpha=float(alpha),
        growth_sup=float(np.sqrt((np.abs(prod) ** 2).sum(axis=(-2, -1))).max()),
        offdiag_min=float(V.values.real[:, off].min()) if V.rows > 1 else 0.0,
        shift_beta=max(0.0, lam_max),
        applied_shift=float(V.shift),
        kappa_min=float(kappa.min()),
        kappa_max=float(kappa.max()),
    )


def report_bytes(rep):
    return {f.name: np.asarray(getattr(rep, f.name)).tobytes() for f in dataclasses.fields(rep)}


class TestDistinct:
    """Matrix functions run once per distinct cell matrix and gathered back
    equal the same functions run over every cell, bit for bit."""

    def test_cells_are_gathered_from_their_distinct_matrices(self, repeated_field):
        V, _ = repeated_field
        first, inverse = V.distinct
        assert V.values[first][inverse].tobytes() == V.values.tobytes()
        assert len(np.unique(inverse)) == len(first) < V.grid.n_cells
        assert (first[inverse] <= np.arange(V.grid.n_cells)).all()  # first is the first cell

    def test_signed_zeros_stay_distinct(self):
        vals = np.zeros((3, 2, 2))
        vals[1, 0, 1] = -0.0
        V = MatrixField(build_grid(1, 1.0, 3), "potential", vals)
        assert V.is_constant
        first, inverse = V.distinct
        assert len(first) == 2 and inverse[0] == inverse[2] != inverse[1]

    def test_constant_field_has_one(self):
        g = build_grid(2, 3.0, 16)
        assert identity_q(g).distinct[0].tolist() == [0]
        assert identity_q(g).distinct[1].tolist() == [0] * g.n_cells

    def test_report_matches_per_cell_report(self, repeated_field):
        V, alpha = repeated_field
        theta = 0.3 if V.grid.dim == 2 else 0.0  # a 1D rule has no axes to rotate
        Q = sample_field(make_rule("anisotropic_Q", V.grid.dim, theta=theta, ratio=0.5)[0],
                         V.grid, "diffusion")
        rep = validate_hypotheses(Q, V, alpha)
        assert np.isfinite(rep.growth_sup)
        assert report_bytes(rep) == report_bytes(per_cell_report(Q, V, alpha))

    def test_power_matches_per_cell_power(self, repeated_field):
        V, alpha = repeated_field
        for z in (-alpha, 0.5j):
            assert (distinct_matrix_powers(V, z)[V.distinct[1]].tobytes()
                    == per_cell_power(V, z).tobytes())

    def test_quadrature_route_matches_per_cell_power(self):
        # Jordan-like cells, each twice: the ill-conditioned ones take the quadrature route.
        eps = np.array([1e-1, 1e-10, 1e-12])
        M = np.zeros((3, 2, 2))
        M[:, 0, 0], M[:, 0, 1], M[:, 1, 1] = 1.0, 1.0, 1.0 + eps
        V = MatrixField(build_grid(1, 1.0, 6), "potential", -np.concatenate([M, M[::-1]]))
        assert len(V.distinct[0]) == 3
        assert (distinct_matrix_powers(V, -0.3)[V.distinct[1]].tobytes()
                == per_cell_power(V, -0.3).tobytes())
