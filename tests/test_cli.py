import configparser
import dataclasses
import inspect
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from vschro import cli, verify
from vschro.evolve import SplitConfig
from vschro.fields import HypothesisReport
from vschro.cli import (
    CHECKS,
    ConfigError,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_NUMERICAL,
    EXIT_OK,
    bundled_config_path,
    list_experiments,
    load_config,
    main,
    run_experiment,
)


def _base_cast(cast):
    """The cast under a (possibly nested) domain."""
    while isinstance(cast, verify._Domain):
        cast = cast.cast
    return cast


# Each check's declared keys and casts, a domain's cast in place of the domain.
CHECK_KEYS = {check: {key: _base_cast(cast) for key, cast in keys.items()}
              for check, keys in verify.CHECK_KEYS.items()}


def write_cfg(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return path


QUICK = """
[problem]
dim = 1
m = 2
extent = 6.0
n_per_axis = 64
q_rule = identity_Q
v_rule = diag_V
v_params = c=-1.0
shift = none

[run]
scheme = lie
substep = backward_euler
n_steps = 20
t_final = 0.2

[checks]
names = contraction, positivity

[check.positivity]
n_random = 5

[output]
seed = 3
"""


class TestConfig:
    def test_list_bundled(self):
        names = list_experiments()
        assert names == sorted(names)
        assert len(names) == 5
        assert len(set(names)) == 5

    def test_load_quick(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, QUICK))
        assert cfg.dim == 1 and cfg.m == 2
        assert cfg.v_params == {"c": -1.0}
        assert cfg.checks == ["contraction", "positivity"]
        assert cfg.overrides["positivity"] == {"n_random": 5}
        assert cfg.run.n_steps == 20

    def test_unknown_check_rejected(self, tmp_path):
        bad = QUICK.replace("contraction, positivity", "contraction, frobnicate")
        with pytest.raises(ConfigError, match="frobnicate"):
            load_config(write_cfg(tmp_path, bad))

    def test_unknown_rule_rejected(self, tmp_path):
        bad = QUICK.replace("diag_V", "nonsense_V")
        with pytest.raises(ConfigError, match="unknown rule 'nonsense_V';") as info:
            load_config(write_cfg(tmp_path, bad))
        assert "'identity_Q'" not in str(info.value)  # the valid rule is not named

    def test_unknown_count_cap(self, tmp_path):
        bad = QUICK.replace("n_per_axis = 64", "n_per_axis = 4000000")
        with pytest.raises(ConfigError, match="hard cap"):
            load_config(write_cfg(tmp_path, bad))

    def test_rule_check_builds_no_component_matrix(self, tmp_path, monkeypatch):
        """3 cells of 10^6 components keep within the hard cap; no listed check
        judges [problem], so no 10^6 x 10^6 matrix is built, at load or after."""
        eye = np.eye
        monkeypatch.setattr(np, "eye", lambda n, *a, **k: pytest.fail(f"np.eye({n})") if n > 64 else eye(n, *a, **k))
        body = _checks(QUICK, "nongeneration").replace("m = 2", "m = 1000000").replace("n_per_axis = 64", "n_per_axis = 3")
        _, code = run_experiment(write_cfg(tmp_path, body), out_dir=tmp_path / "out")
        assert code == EXIT_OK

    def test_custom_table_is_read_once_at_build(self, tmp_path, monkeypatch):
        reads, loadtxt = [], np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: reads.append(a[0]) or loadtxt(*a, **k))
        cfg = write_cfg(tmp_path, _table_body(tmp_path, 64))
        load_config(cfg)
        assert reads == []
        _, code = run_experiment(cfg, out_dir=tmp_path / "out")
        assert code == EXIT_OK and len(reads) == 1

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")

    def test_run_keys_are_the_split_config_fields(self):
        assert [f.name for f in dataclasses.fields(SplitConfig)] == list(cli._SECTION_KEYS["run"])

    def test_all_bundled_configs_parse(self):
        for name in list_experiments():
            cfg = load_config(bundled_config_path(name))
            for check in cfg.checks:
                assert check in CHECKS


class TestRunExperiment:
    def test_quick_experiment_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, QUICK)
        bundle, code = run_experiment(cfg, out_dir=tmp_path / "out")
        assert code == EXIT_OK
        assert bundle.all_passed
        assert {r.name for r in bundle.results} == {"contraction", "positivity"}
        # manifest hashes match the emitted files
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        import hashlib

        for fname, digest in manifest.items():
            assert hashlib.sha256((out / fname).read_bytes()).hexdigest() == digest

    def test_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, QUICK)
        run_experiment(cfg, out_dir=tmp_path / "a", seed=42)
        run_experiment(cfg, out_dir=tmp_path / "b", seed=42)
        for fname in ("bundle.json", "report.txt", "report.csv"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_csv_and_text_agree(self, tmp_path):
        cfg = write_cfg(tmp_path, QUICK)
        bundle, _ = run_experiment(cfg, out_dir=tmp_path / "out")
        csv_lines = (tmp_path / "out" / "report.csv").read_text().strip().splitlines()
        header, rows = csv_lines[0], csv_lines[1:]
        assert header == "check,passed,tolerance,measure,value"
        text = (tmp_path / "out" / "report.txt").read_text()
        for row in rows:
            check, passed, tol, key, value = row.split(",")
            assert f"{key} = {value}" in text

    def test_hypothesis_echo_is_the_report(self, tmp_path, capsys):
        # bundle.json and validate echo the fields of HypothesisReport, no more, no fewer
        cfg = write_cfg(tmp_path, QUICK)
        run_experiment(cfg, out_dir=tmp_path / "out")
        bundled = json.loads((tmp_path / "out" / "bundle.json").read_text())["hypothesis_report"]
        assert main(["validate", "--config", str(cfg)]) == EXIT_OK
        printed = [line.split(" = ")[0] for line in capsys.readouterr().out.splitlines()]
        fields = {f.name for f in dataclasses.fields(HypothesisReport)}
        assert set(bundled) == set(printed) == fields and len(printed) == len(fields)

    def test_degenerate_kernel_judges_the_problem(self, tmp_path):
        # halving degenerate.cfg's [problem] grid moves every degenerate_kernel value
        text = bundled_config_path("degenerate").read_text().replace(
            "contraction, degenerate_kernel, compactness", "degenerate_kernel")
        measured = {}
        for n in (400, 200):
            cfg = write_cfg(tmp_path, text.replace("n_per_axis = 400", f"n_per_axis = {n}"), name=f"{n}.cfg")
            bundle, code = run_experiment(cfg, out_dir=tmp_path / str(n))
            assert code == EXIT_OK
            measured[n] = bundle.results[0].measured
        assert len(measured[400]) == 3
        assert all(measured[400][key] != measured[200][key] for key in measured[400])

    @pytest.mark.parametrize("name", ["nongeneration", "nonanalytic"])
    def test_problem_free_checks_build_no_problem(self, tmp_path, monkeypatch, name):
        def build(cfg):
            raise AssertionError("[problem] built for problem-free checks")

        monkeypatch.setattr(cli, "build_problem_from_config", build)
        bundle, code = run_experiment(name, out_dir=tmp_path / "o")
        assert code == EXIT_OK
        assert json.loads((tmp_path / "o" / "bundle.json").read_text())["hypothesis_report"] == {}
        lines = (tmp_path / "o" / "report.txt").read_text().splitlines()
        assert lines[2] == "" and not any(line.startswith("coefficient check") for line in lines)

    def test_failing_check_exit_code(self, tmp_path):
        flipped = (
            _checks(QUICK, "contraction").replace("c=-1.0", "c=2.0")
            .replace("n_steps = 20", "n_steps = 100")
            .replace("t_final = 0.2", "t_final = 2.0")
        )
        bundle, code = run_experiment(write_cfg(tmp_path, flipped), out_dir=tmp_path / "out")
        assert code == EXIT_CHECK_FAILED
        assert not bundle.results[0].passed

    @pytest.mark.parametrize("run", ["", "[run]\nt_final = 0.2\n"], ids=["no_run_section", "run_without_steps"])
    def test_one_default_step_count(self, tmp_path, run):
        # the same 100 steps with or without a [run] section, echoed as run
        body = QUICK.replace("[run]\nscheme = lie\nsubstep = backward_euler\nn_steps = 20\nt_final = 0.2\n", run)
        cfg = write_cfg(tmp_path, body)
        bundle, code = run_experiment(cfg, out_dir=tmp_path / "out")
        assert code == EXIT_OK and bundle.config["run"]["n_steps"] == 100
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "traj")]) == EXIT_OK
        assert len((tmp_path / "traj" / "norms.csv").read_text().splitlines()) == 1 + 4 * 101

    def test_sizing_hint_is_config_error(self, tmp_path):
        small = _checks(QUICK, "ultracontractivity").replace("n_per_axis = 64", "n_per_axis = 8")
        with pytest.raises(ConfigError, match="window"):
            run_experiment(write_cfg(tmp_path, small), out_dir=tmp_path / "out")


class TestMain:
    def test_list_command(self, capsys):
        assert main(["list"]) == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 5

    def test_validate_command(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        assert main(["validate", "--config", str(cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "eta1 = 1" in out
        assert "dissipativity_margin" in out

    def test_verify_command_and_exit_codes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert main(["verify", "--config", "/no/such.cfg"]) == EXIT_CONFIG

    def test_evolve_command_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, QUICK)
        out = tmp_path / "traj"
        assert main(["evolve", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == EXIT_OK
        norms = (out / "norms.csv").read_text().splitlines()
        assert norms[0] == "time,p,norm"
        assert len(norms) == 1 + 4 * 21  # four p values, 21 time points
        assert (out / "final_field.csv").exists()
        assert (out / "final_component0.pgm").exists()

    @pytest.mark.parametrize("stride, steps", [(1, range(11)), (3, (0, 3, 6, 9, 10))], ids=["every", "every_third"])
    def test_snapshots_closer_than_a_microsecond_keep_their_own_files(self, tmp_path, stride, steps):
        # 10 steps to t = 1e-7: every snapshot time is 0.000000 to six decimals
        body = QUICK.replace("n_per_axis = 64", "n_per_axis = 16").replace(
            "n_steps = 20", "n_steps = 10").replace("t_final = 0.2", "t_final = 1e-7")
        out = tmp_path / "traj"
        assert main(["evolve", "--config", str(write_cfg(tmp_path, body)), "--out", str(out),
                     "--dump-snapshots", str(stride)]) == EXIT_OK
        names = sorted(p.name for p in out.glob("field_*.csv"))
        assert names == [f"field_step{k:02d}_t{k * 1e-8:.12g}.csv" for k in steps]
        times = {line.split(",")[0] for line in (out / "norms.csv").read_text().splitlines()[1:]}
        assert {name[:-len(".csv")].split("_t")[1] for name in names} <= times  # t as norms.csv writes it
        assert (out / "field_step10_t1e-07.csv").read_text() == (out / "final_field.csv").read_text()

    @pytest.mark.parametrize("n_steps, stride, steps", [(9, 4, ("0", "4", "8", "9")),
                                                         (10, 5, ("00", "05", "10")),
                                                         (100, 50, ("000", "050", "100"))])
    def test_snapshot_steps_are_padded_to_sort_in_time_order(self, tmp_path, n_steps, stride, steps):
        body = QUICK.replace("n_per_axis = 64", "n_per_axis = 16").replace("n_steps = 20", f"n_steps = {n_steps}")
        out = tmp_path / "traj"
        assert main(["evolve", "--config", str(write_cfg(tmp_path, body)), "--out", str(out),
                     "--dump-snapshots", str(stride)]) == EXIT_OK
        names = sorted(p.name for p in out.glob("field_*.csv"))
        assert [name.split("_")[1] for name in names] == [f"step{k}" for k in steps]
        assert [name[:-len(".csv")].split("_t")[1] for name in names] == [
            f"{int(k) * (0.2 / n_steps):.12g}" for k in steps]  # t = k tau, as norms.csv writes it

    def test_spectrum_command(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        out = tmp_path / "spectrum_out"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out), "--k", "3"]) == EXIT_OK
        lines = (out / "eigenvalues.csv").read_text().splitlines()
        assert lines[0] == "re_lambda,im_lambda,residual"
        assert len(lines) == 4
        top = float(lines[1].split(",")[0])
        assert top == pytest.approx(-2.0 - np.pi**2 / 144.0, rel=1e-2)

    def test_kernel_command(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        out = tmp_path / "ker"
        assert main(["kernel", "--config", str(cfg), "--out", str(out), "--t", "0.05"]) == EXIT_OK
        assert (out / "kernel_column.csv").exists()
        assert "sup |K|" in capsys.readouterr().out

    def test_resolvent_command(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        out = tmp_path / "res"
        code = main([
            "resolvent", "--config", str(cfg), "--out", str(out),
            "--lam-re", "1.0", "2.0", "--lam-im", "0.0",
        ])
        assert code == EXIT_OK
        lines = (out / "resolvent_scan.csv").read_text().splitlines()
        assert lines[0] == "re_lambda,im_lambda,norm_estimate"
        assert len(lines) == 3
        # dissipative bound: ||(lam - L)^{-1}|| <= 1/(lam + 1) here (spectrum <= -2)
        for row in lines[1:]:
            re, im, nrm = (float(v) for v in row.split(","))
            assert nrm <= 1.0 / (re + 1.0) * (1 + 1e-6)

    def test_resolvent_at_the_edge_of_its_domain(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert main(["resolvent", "--config", "rotation_r15", "--out", str(out),
                     "--lam-re", "1e150"]) == EXIT_OK
        assert capsys.readouterr().out.endswith("||(lambda - L)^-1|| = 1e-150\n")

    @pytest.mark.parametrize("command, flags, table, rows", [
        ("spectrum", ["--k", "6"], "eigenvalues.csv", 6),
        ("resolvent", ["--lam-re", "1", "--lam-im", "0", "1"], "resolvent_scan.csv", 2),
    ], ids=["spectrum", "resolvent"])
    def test_bundled_config_by_name(self, tmp_path, command, flags, table, rows):
        out = tmp_path / "o"
        assert main([command, "--config", "rotation_r15", "--out", str(out), *flags]) == EXIT_OK
        assert len((out / table).read_text().splitlines()) == 1 + rows

    def test_report_reemit(self, tmp_path):
        cfg = write_cfg(tmp_path, QUICK)
        out = tmp_path / "out"
        run_experiment(cfg, out_dir=out)
        redo = tmp_path / "redo"
        assert main([
            "report", "--bundle", str(out / "bundle.json"), "--out", str(redo),
            "--format", "csv",
        ]) == EXIT_OK
        assert (redo / "report.csv").read_bytes() == (out / "report.csv").read_bytes()


class TestConfigErrors:
    def _exit_code(self, tmp_path, body):
        return main(["validate", "--config", str(write_cfg(tmp_path, body))])

    def test_undecodable_file(self, tmp_path, capsys):
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"\xff\xfe[problem]\n")
        assert main(["validate", "--config", str(cfg)]) == EXIT_CONFIG
        assert "cannot parse config" in capsys.readouterr().err

    def test_rotation_alpha_window(self, tmp_path, capsys):
        body = QUICK.replace("v_rule = diag_V\nv_params = c=-1.0", "v_rule = rotation_V\nv_params = r=1.5")
        assert self._exit_code(tmp_path, body.replace("shift = none", "shift = auto\nalpha = 0.45")) == EXIT_OK
        assert self._exit_code(tmp_path, body.replace("shift = none", "shift = auto\nalpha = 0.2")) == EXIT_CONFIG
        assert "alpha must lie in (0.333, 0.5)" in capsys.readouterr().err
        too_steep = body.replace("r=1.5", "r=2.5").replace("shift = none", "shift = auto\nalpha = 0.45")
        assert self._exit_code(tmp_path, too_steep) == EXIT_CONFIG

    def test_diffusion_rule_as_potential_rejected(self, tmp_path, capsys):
        body = QUICK.replace("m = 2", "m = 1").replace("v_rule = diag_V\nv_params = c=-1.0", "v_rule = identity_Q")
        assert self._exit_code(tmp_path, body) == EXIT_CONFIG
        assert "needs a potential" in capsys.readouterr().err

    @pytest.mark.parametrize("n_cells", [63, 65])
    def test_custom_table_cell_count_mismatch(self, tmp_path, capsys, n_cells):
        rows = ["cell,row,col,value"]
        for c in range(n_cells):
            rows += [f"{c},0,0,-1.0", f"{c},1,1,-1.0"]
        table = tmp_path / "table.csv"
        table.write_text("\n".join(rows) + "\n")
        body = QUICK.replace("v_rule = diag_V\nv_params = c=-1.0", f"v_rule = custom_table\nv_params = path={table}")
        assert self._exit_code(tmp_path, body) == EXIT_CONFIG
        assert f"lists {n_cells} cells, the grid has 64" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content", [None, "cell,row,col\n0,0,0\n"], ids=["missing", "three_columns"]
    )
    def test_custom_table_unreadable_or_malformed(self, tmp_path, content):
        table = tmp_path / "table.csv"
        if content is not None:
            table.write_text(content)
        body = QUICK.replace("v_rule = diag_V\nv_params = c=-1.0", f"v_rule = custom_table\nv_params = path={table}")
        assert self._exit_code(tmp_path, body) == EXIT_CONFIG


def _table_body(tmp_path, n_cells, value="-1.0"):
    rows = ["cell,row,col,value"]
    for c in range(n_cells):
        rows += [f"{c},0,0,{value if c == 5 else -1.0}", f"{c},1,1,-1.0"]
    table = tmp_path / "table.csv"
    table.write_text("\n".join(rows) + "\n")
    return QUICK.replace("v_rule = diag_V\nv_params = c=-1.0", f"v_rule = custom_table\nv_params = path={table}")


def _complex_q_body(tmp_path, imag):
    """QUICK with a scalar diffusion read from a table whose imaginary column is imag."""
    table = tmp_path / "q.csv"
    table.write_text("cell,row,col,value,imag\n" + "".join(f"{c},0,0,1.0,{imag}\n" for c in range(64)))
    return QUICK.replace("q_rule = identity_Q", f"q_rule = custom_table\nq_params = path={table}, kind=diffusion")


# Malformed inputs and the stderr fragment each must produce; every one exits 2.
MALFORMED = {
    "complex_diffusion_table": (lambda tmp: _complex_q_body(tmp, 0.5),
                                "diffusion matrices must be real, got imaginary parts up to 5.000e-01"),
    "short_table": (lambda tmp: _table_body(tmp, 63), "lists 63 cells"),
    "nan_coefficient": (lambda tmp: QUICK.replace("c=-1.0", "c=nan"), "non-finite"),
    "nan_table_entry": (lambda tmp: _table_body(tmp, 64, value="nan"), "non-finite"),
    "oversize_grid": (lambda tmp: QUICK.replace("n_per_axis = 64", "n_per_axis = 2000001"), "hard cap"),
    # Refused before any rule is checked: diag_V's m x m matrix is never built.
    "oversize_components": (lambda tmp: QUICK.replace("m = 2", "m = 100000"), "hard cap"),
    "unknown_check": (lambda tmp: QUICK.replace("contraction, positivity", "contraction, frobnicate"),
                      "unknown check 'frobnicate'"),
    "unknown_override_section": (lambda tmp: QUICK.replace("[check.positivity]", "[check.frobnicate]"),
                                 "unknown check 'frobnicate'"),
    # The retired problem-free commutator check is refused like any unknown one.
    "retired_commutator_check": (lambda tmp: _checks(QUICK, "nongeneration, commutator"),
                                 "unknown check 'commutator'; known: "),
    "unknown_rule": (lambda tmp: QUICK.replace("diag_V", "nonsense_V"), "unknown rule 'nonsense_V'"),
    # A check listed twice would write its result twice.
    "repeated_check": (lambda tmp: QUICK.replace("contraction, positivity", "contraction, positivity, contraction"),
                       "[checks] names lists 'contraction' twice; list each check once"),
    # degenerate_kernel judges [problem], which must be the degenerate coupling.
    "diag_degenerate_kernel": (lambda tmp: _checks(QUICK, "degenerate_kernel"),
                               "inconclusive: the degenerate coupling needs V(x)(1, 1) = -shift (1, 1) "
                               "at every cell; V misses it by 1"),
    "scalar_degenerate_kernel": (lambda tmp: _checks(QUICK, "degenerate_kernel").replace("m = 2", "m = 1"),
                                 "inconclusive: the degenerate coupling needs m = 2, got m = 1"),
    "unknown_rule_parameter": (lambda tmp: QUICK.replace("c=-1.0", "C=1.0"),
                               "rule 'diag_V' has no parameter 'C'"),
    "unknown_rule_parameter_extra": (lambda tmp: QUICK.replace("c=-1.0", "c=-1.0, zz=1.0"),
                                     "no parameter 'zz'"),
    "unknown_override_key": (lambda tmp: QUICK.replace("n_random = 5", "n_random = 5\nslakc = 1e-3"),
                             "unknown key [check.positivity] slakc; [check.positivity] takes: n_random, "
                             "t_forward"),
    "m_in_v_params": (lambda tmp: QUICK.replace("c=-1.0", "c=-1.0, m=3"), "v_params sets m"),
    "m_in_q_params": (lambda tmp: QUICK.replace("q_rule = identity_Q", "q_rule = identity_Q\nq_params = m=3"),
                      "q_params sets m; the component count is [problem] m"),
    "dim_in_q_params": (lambda tmp: QUICK.replace("q_rule = identity_Q", "q_rule = identity_Q\nq_params = dim=2"),
                        "rule 'identity_Q' has no parameter 'dim'"),
    "single_trotter_schedule": (lambda tmp: _override_body("trotter_order", "n_schedule = 16,"),
                                "n_schedule needs at least 2"),
    "scalar_trotter_schedule": (lambda tmp: _override_body("trotter_order", "n_schedule = 16"),
                                "n_schedule needs at least 2"),
    "single_extent": (lambda tmp: _override_body("nongeneration", "extents = 50.0,"),
                      "extents needs at least 2"),
    "scalar_extent": (lambda tmp: _override_body("nongeneration", "extents = 50.0"),
                      "extents needs at least 2"),
    "empty_domination_times": (lambda tmp: _override_body("domination", "ts = ,"), "ts needs at least 1"),
    "empty_shift_invariance_sigmas": (lambda tmp: _override_body("shift_invariance", "sigmas = ,"),
                                      "sigmas needs at least 1"),
    # diag_V does not couple component 0 (f) to component m-1 (g): both sides are 0.
    "decoupled_consistency": (lambda tmp: _override_body("consistency", "lam = 2.0"),
                              "inconclusive"),
    "nonpositive_consistency_lam": (lambda tmp: _override_body("consistency", "lam = 0.0"),
                                    "lam must be positive"),
    # diag_V is constant, so it commutes with the diffusion: no splitting error.
    "commuting_trotter_order": (lambda tmp: _override_body("trotter_order", "t = 0.5"),
                                "inconclusive"),
    "word_for_float_horizon": (lambda tmp: _override_body("consistency", "horizon = abc"),
                               "[check.consistency] horizon takes float, got 'abc'"),
    "list_for_float_horizon": (lambda tmp: _override_body("consistency", "horizon = 6.0, 7.0"),
                               "[check.consistency] horizon takes float, got [6.0, 7.0]"),
    "word_for_float_trotter_t": (lambda tmp: _override_body("trotter_order", "t = fast"),
                                 "[check.trotter_order] t takes float, got 'fast'"),
    "word_in_int_schedule": (lambda tmp: _override_body("trotter_order", "n_schedule = 8, many"),
                             "[check.trotter_order] n_schedule takes a list of int"),
    # An int key is not truncated, and no numeric key takes true/false.
    "fraction_for_int_steps": (lambda tmp: _override_body("consistency", "n_steps = 2.5"),
                               "[check.consistency] n_steps takes int, got 2.5"),
    "fraction_in_int_schedule": (lambda tmp: _override_body("trotter_order", "n_schedule = 2.5, 5"),
                                 "[check.trotter_order] n_schedule takes a list of int"),
    "bool_for_float_t_forward": (lambda tmp: _override_body("positivity", "t_forward = true"),
                                 "[check.positivity] t_forward takes float, got True"),
    "bool_for_int_n_points": (lambda tmp: _override_body("ultracontractivity", "n_points = false"),
                              "[check.ultracontractivity] n_points takes int, got False"),
    # configparser's own errors name the line.
    "duplicate_key": (lambda tmp: QUICK.replace("m = 2", "m = 2\nm = 2"),
                      "[line 5]: option 'm' in section 'problem' already exists"),
    "duplicate_section": (lambda tmp: QUICK + "\n[run]\nn_steps = 5\n",
                          "[line 27]: section 'run' already exists"),
    "no_section_header": (lambda tmp: "dim = 1\n" + QUICK, "no section headers. file: "),
    "no_section_header_line": (lambda tmp: "dim = 1\n" + QUICK, "line: 1 'dim = 1\\n'"),
    # verify runs nothing it was not asked for, and nothing less.
    "empty_check_list": (lambda tmp: _checks(QUICK, ""),
                         "[checks] names lists no check"),
    "no_checks_section": (lambda tmp: _checks(QUICK.replace("[checks]\nnames = contraction, positivity", ""), ""),
                          "[checks] names lists no check"),
    "unknown_section": (lambda tmp: QUICK.replace("[run]", "[runx]"), "unknown section [runx]"),
    # [problem], [run] and [output] numbers take the casts of [check.<name>] keys.
    "fraction_for_run_steps": (lambda tmp: QUICK.replace("n_steps = 20", "n_steps = 2.5"),
                               "[run] n_steps takes int, got 2.5"),
    "bool_for_run_t_final": (lambda tmp: QUICK.replace("t_final = 0.2", "t_final = true"),
                             "[run] t_final takes float, got True"),
    "float_for_problem_cells": (lambda tmp: QUICK.replace("n_per_axis = 64", "n_per_axis = 64.0"),
                                "[problem] n_per_axis takes int, got 64.0"),
    "word_for_problem_extent": (lambda tmp: QUICK.replace("extent = 6.0", "extent = wide"),
                                "[problem] extent takes float, got 'wide'"),
    "negative_seed": (lambda tmp: QUICK.replace("seed = 3", "seed = -1"),
                      "[output] seed must be non-negative, got -1"),
    "fraction_for_seed": (lambda tmp: QUICK.replace("seed = 3", "seed = 2.5"),
                          "[output] seed takes int, got 2.5"),
    "float_for_problem_dim": (lambda tmp: QUICK.replace("dim = 1", "dim = 1.0"),
                              "[problem] dim takes int, got 1.0"),
    "word_for_problem_m": (lambda tmp: QUICK.replace("m = 2", "m = two"),
                           "[problem] m takes int, got 'two'"),
    "bool_for_problem_alpha": (lambda tmp: QUICK.replace("shift = none", "shift = none\nalpha = true"),
                               "[problem] alpha takes float, got True"),
    # A misspelt key in a fixed section is refused, not left to its default.
    "unknown_run_key": (lambda tmp: QUICK.replace("n_steps = 20", "nsteps = 5"),
                        "unknown key [run] nsteps; [run] takes: scheme, substep, n_steps, t_final"),
    # The iteration cap of the iterative solver that direct solves replaced.
    "run_max_iters": (lambda tmp: QUICK.replace("t_final = 0.2", "t_final = 0.2\nmax_iters = 5"),
                      "unknown key [run] max_iters"),
    # The residual bound that the backward-error rule of every checked solve
    # replaced, set at its old default.
    "run_solver_tol": (lambda tmp: QUICK.replace("t_final = 0.2", "t_final = 0.2\nsolver_tol = 1e-10"),
                       "unknown key [run] solver_tol; [run] takes: scheme, substep, n_steps, t_final"),
    "unknown_problem_key": (lambda tmp: QUICK.replace("n_per_axis = 64", "n_per_axes = 64"),
                            "unknown key [problem] n_per_axes; [problem] takes: dim, m, extent, "
                            "n_per_axis, q_rule, q_params, v_rule, v_params, shift, alpha"),
    "unknown_checks_key": (lambda tmp: QUICK.replace("names = contraction, positivity",
                                                     "names = contraction\nname = positivity"),
                           "unknown key [checks] name; [checks] takes: names"),
    "unknown_output_key": (lambda tmp: QUICK.replace("seed = 3", "seed = 3\ndirectory = out"),
                           "unknown key [output] directory; [output] takes: dir, seed"),
    # Every float key takes a finite value only.
    "nan_t_forward": (lambda tmp: _override_body("positivity", "t_forward = nan"),
                      "[check.positivity] t_forward must be finite, got nan"),
    "inf_consistency_lam": (lambda tmp: _override_body("consistency", "lam = inf"),
                            "[check.consistency] lam must be finite, got inf"),
    "nan_in_domination_times": (lambda tmp: _override_body("domination", "ts = 0.1, nan"),
                                "[check.domination] ts must be finite, got [0.1, nan]"),
    "inf_problem_extent": (lambda tmp: QUICK.replace("extent = 6.0", "extent = inf"),
                           "[problem] extent must be finite, got inf"),
    "float_overflowing_problem_extent": (lambda tmp: QUICK.replace("extent = 6.0", "extent = 1" + "0" * 400),
                                         "[problem] extent must be finite, got 1000"),
    "nan_problem_alpha": (lambda tmp: QUICK.replace("shift = none", "shift = none\nalpha = nan"),
                          "[problem] alpha must be finite, got nan"),
    "inf_run_t_final": (lambda tmp: QUICK.replace("t_final = 0.2", "t_final = inf"),
                        "[run] t_final must be finite, got inf"),
    # Values that leave nothing measured or no verdict to reach.
    "no_positivity_draws": (lambda tmp: _override_body("positivity", "n_random = 0"),
                            "[check.positivity] n_random must be at least 1, got 0"),
    # A pass bar is a constant of vschro.verify, not a key: each former key,
    # set at its old default, is unknown.
    "contraction_slack": (lambda tmp: _override_body("contraction", "slack = 1e-8"),
                          "unknown key [check.contraction] slack; [check.contraction] takes no keys"),
    "consistency_tol": (lambda tmp: _override_body("consistency", "tol = 0.01"),
                        "unknown key [check.consistency] tol; [check.consistency] takes: lam, horizon, "
                        "n_steps"),
    "positivity_floor": (lambda tmp: _override_body("positivity", "floor = 1e-10"),
                         "unknown key [check.positivity] floor; [check.positivity] takes: n_random, "
                         "t_forward"),
    "domination_slack": (lambda tmp: _override_body("domination", "slack = 1e-8"),
                         "unknown key [check.domination] slack; [check.domination] takes: ts"),
    "ultracontractivity_tol": (lambda tmp: _override_body("ultracontractivity", "tol = 0.1"),
                               "unknown key [check.ultracontractivity] tol; [check.ultracontractivity] "
                               "takes: n_points"),
    "shift_invariance_tol": (lambda tmp: _override_body("shift_invariance", "tol = 0.02"),
                             "unknown key [check.shift_invariance] tol; [check.shift_invariance] takes: "
                             "mu, sigmas, extent, n_per_axis"),
    "compactness_k": (lambda tmp: _override_body("compactness", "k = 20"),
                      "unknown key [check.compactness] k; [check.compactness] takes: h_target, extent"),
    "single_ultracontractivity_point": (lambda tmp: _override_body("ultracontractivity", "n_points = 1"),
                                        "[check.ultracontractivity] n_points must be at least 2, got 1"),
    # Schedules refine: each entry past the last.
    "decreasing_trotter_schedule": (lambda tmp: _override_body("trotter_order", "n_schedule = 16, 8"),
                                    "[check.trotter_order] n_schedule must be strictly increasing, "
                                    "got [16, 8]"),
    "repeated_trotter_schedule": (lambda tmp: _override_body("trotter_order", "n_schedule = 8, 8"),
                                  "[check.trotter_order] n_schedule must be strictly increasing, "
                                  "got [8, 8]"),
    "decreasing_extents": (lambda tmp: _override_body("nongeneration", "extents = 100.0, 50.0"),
                           "[check.nongeneration] extents must be strictly increasing, got [100.0, 50.0]"),
    # A split step takes at least 1 step.
    "zero_in_trotter_schedule": (lambda tmp: _override_body("trotter_order", "n_schedule = 0, 8"),
                                 "[check.trotter_order] n_schedule must be at least 1, got [0, 8]"),
    "negative_consistency_lam": (lambda tmp: _override_body("consistency", "lam = -1"),
                                 "[check.consistency] lam must be positive, got -1.0"),
    "negative_nongeneration_lam": (lambda tmp: _override_body("nongeneration", "lam = -1"),
                                   "[check.nongeneration] lam must be positive, got -1.0"),
    # A problem has at least one component.
    "zero_components": (lambda tmp: QUICK.replace("m = 2", "m = 0"), "[problem] m must be at least 1, got 0"),
    "negative_components": (lambda tmp: QUICK.replace("m = 2", "m = -1"), "[problem] m must be at least 1, got -1"),
    # [problem] and [run] values outside their domains, named with the section at load.
    "unknown_run_scheme": (lambda tmp: QUICK.replace("scheme = lie", "scheme = foo"),
                           "[run] scheme must be 'lie' or 'strang', got 'foo'"),
    "unknown_run_substep": (lambda tmp: QUICK.replace("substep = backward_euler", "substep = foo"),
                            "[run] substep must be 'backward_euler' or 'crank_nicolson', got 'foo'"),
    "zero_run_steps": (lambda tmp: QUICK.replace("n_steps = 20", "n_steps = 0"),
                       "[run] n_steps must be at least 1, got 0"),
    "negative_run_t_final": (lambda tmp: QUICK.replace("t_final = 0.2", "t_final = -1"),
                             "[run] t_final must be positive, got -1.0"),
    "three_dimensional_problem": (lambda tmp: QUICK.replace("dim = 1", "dim = 3"),
                                  "[problem] dim must be 1 or 2, got 3"),
    "two_cell_problem": (lambda tmp: QUICK.replace("n_per_axis = 64", "n_per_axis = 2"),
                         "[problem] n_per_axis must be at least 3, got 2"),
    "negative_problem_extent": (lambda tmp: QUICK.replace("extent = 6.0", "extent = -1"),
                                "[problem] extent must be positive, got -1.0"),
    "unknown_problem_shift": (lambda tmp: QUICK.replace("shift = none", "shift = always"),
                              "[problem] shift must be 'auto' or 'none', got 'always'"),
    "large_problem_alpha": (lambda tmp: QUICK.replace("shift = none", "shift = none\nalpha = 0.7"),
                            "[problem] alpha must lie in [0, 0.5), got 0.7"),
    "negative_problem_alpha": (lambda tmp: QUICK.replace("shift = none", "shift = none\nalpha = -0.1"),
                               "[problem] alpha must lie in [0, 0.5), got -0.1"),
    # Step sizes the split steps no longer check themselves, named with the section at load.
    "zero_positivity_t_forward": (lambda tmp: _override_body("positivity", "t_forward = 0"),
                                  "[check.positivity] t_forward must be positive, got 0.0"),
    "negative_domination_time": (lambda tmp: _override_body("domination", "ts = 0.1, -1"),
                                 "[check.domination] ts must be positive, got [0.1, -1.0]"),
    "zero_degenerate_kernel_t": (lambda tmp: _override_body("degenerate_kernel", "t = 0"),
                                 "[check.degenerate_kernel] t must be positive, got 0.0"),
    "zero_degenerate_kernel_steps": (lambda tmp: _override_body("degenerate_kernel", "n_steps = 0"),
                                     "[check.degenerate_kernel] n_steps must be at least 1, got 0"),
    # Lists too short to measure anything, named with the section at load.
    "short_trotter_schedule": (lambda tmp: _override_body("trotter_order", "n_schedule = 8"),
                               "[check.trotter_order] n_schedule needs at least 2 entries, got [8]"),
    "short_extents": (lambda tmp: _override_body("nongeneration", "extents = 100.0"),
                      "[check.nongeneration] extents needs at least 2 entries, got [100.0]"),
    "no_domination_times": (lambda tmp: _override_body("domination", "ts = ,"),
                            "[check.domination] ts needs at least 1 entry, got []"),
    "no_shift_invariance_sigmas": (lambda tmp: _override_body("shift_invariance", "sigmas = ,"),
                                   "[check.shift_invariance] sigmas needs at least 1 entry, got []"),
    # contraction steps Lie / backward Euler, so the bundle echoes the run that happened.
    "strang_contraction": (lambda tmp: QUICK.replace("scheme = lie", "scheme = strang"),
                           "contraction runs only [run] scheme = lie, substep = backward_euler; "
                           "got scheme = strang, substep = backward_euler"),
    "crank_nicolson_contraction": (lambda tmp: QUICK.replace("substep = backward_euler",
                                                             "substep = crank_nicolson"),
                                   "contraction runs only [run] scheme = lie, substep = backward_euler; "
                                   "got scheme = lie, substep = crank_nicolson"),
    # An override section for a check that does not run would never be read.
    "unused_override_section": (lambda tmp: QUICK.replace("contraction, positivity", "contraction"),
                                "[check.positivity] is set but 'positivity' is not in [checks] names"),
    # Horizons, step sizes, boxes and cell counts that leave nothing to run.
    "zero_consistency_horizon": (lambda tmp: _override_body("consistency", "horizon = 0"),
                                 "[check.consistency] horizon must be positive, got 0.0"),
    "zero_consistency_steps": (lambda tmp: _override_body("consistency", "n_steps = 0"),
                               "[check.consistency] n_steps must be at least 1, got 0"),
    "zero_trotter_t": (lambda tmp: _override_body("trotter_order", "t = 0"),
                       "[check.trotter_order] t must be positive, got 0.0"),
    "zero_nongeneration_h_target": (lambda tmp: _override_body("nongeneration", "h_target = 0"),
                                    "[check.nongeneration] h_target must be positive, got 0.0"),
    "negative_nongeneration_extent": (lambda tmp: _override_body("nongeneration", "extents = -50, 100"),
                                      "[check.nongeneration] extents must be positive, got [-50.0, 100.0]"),
    "zero_shift_invariance_extent": (lambda tmp: _override_body("shift_invariance", "extent = 0"),
                                     "[check.shift_invariance] extent must be positive, got 0.0"),
    "two_cell_shift_invariance": (lambda tmp: _override_body("shift_invariance", "n_per_axis = 2"),
                                  "[check.shift_invariance] n_per_axis must be at least 3, got 2"),
    # degenerate_kernel judges [problem]'s grid: its box keys are gone, whatever their value.
    "zero_degenerate_kernel_extent": (lambda tmp: _override_body("degenerate_kernel", "extent = 0"),
                                      "unknown key [check.degenerate_kernel] extent; [check.degenerate_kernel] takes: "
                                      "t, n_steps"),
    "two_cell_degenerate_kernel": (lambda tmp: _override_body("degenerate_kernel", "n_per_axis = 2"),
                                   "unknown key [check.degenerate_kernel] n_per_axis; [check.degenerate_kernel] takes: "
                                   "t, n_steps"),
    "zero_compactness_h_target": (lambda tmp: _override_body("compactness", "h_target = 0"),
                                  "[check.compactness] h_target must be positive, got 0.0"),
    "zero_compactness_extent": (lambda tmp: _override_body("compactness", "extent = 0"),
                                "[check.compactness] extent must be positive, got 0.0"),
    # Check-built grids keep within the hard cap on unknowns, before any is built.
    "oversize_shift_invariance_grid": (lambda tmp: _override_body("shift_invariance", "n_per_axis = 4000001"),
                                       "[check.shift_invariance] n_per_axis must be at most 4000000: the "
                                       "hard cap is 4000000 unknowns, 1 per cell, got 4000001"),
    "oversize_degenerate_kernel_grid": (lambda tmp: _override_body("degenerate_kernel", "n_per_axis = 2000001"),
                                        "unknown key [check.degenerate_kernel] n_per_axis; [check.degenerate_kernel] takes: "
                                        "t, n_steps"),
    "fine_nongeneration_grid": (lambda tmp: _override_body("nongeneration", "h_target = 1e-9"),
                                "h_target = 1e-09 puts more than 4000000 unknowns (the hard cap) on the "
                                "box of R = 50"),
    "fine_compactness_grid": (lambda tmp: _override_body("compactness", "h_target = 1e-5"),
                              "h_target = 1e-05 puts more than 4000000 unknowns (the hard cap) on the "
                              "box of R = 20"),
    # ... and a spacing too coarse for the smallest box is named as the spacing.
    "coarse_nongeneration_grid": (lambda tmp: _override_body("nongeneration", "h_target = 1e6"),
                                  "h_target = 1000000.0 leaves fewer than 3 cells on the box of R = 50"),
    "coarse_compactness_grid": (lambda tmp: _override_body("compactness", "h_target = 10"),
                                "h_target = 10.0 leaves fewer than 3 cells on the box of R = 10"),
    # ... and so is a spacing too coarse for the eigenpairs the contrast takes.
    "few_compactness_cells": (lambda tmp: _override_body("compactness", "h_target = 4"),
                              "h_target = 4.0 puts 4 cells on the box of R = 10, too few for the 20 "
                              "eigenpairs the contrast takes (at most 6)"),
    # degenerate_kernel un-rescales by e^(t * (1 + shift)): a t it overflows at is
    # refused before any solve, whatever the step count.
    "overflowing_degenerate_kernel_t": (lambda tmp: _degenerate(_override_body("degenerate_kernel", "t = 1000")),
                                        "t = 1000.0 overflows the rescale e^(t * 1); t must be at most 709.783"),
    "overflowing_degenerate_kernel_t_few_steps": (
        lambda tmp: _degenerate(_override_body("degenerate_kernel", "t = 1000\nn_steps = 10")),
        "t = 1000.0 overflows the rescale e^(t * 1)"),
    # A rule parameter is a number: a word or a bool is refused, naming the parameter.
    "word_for_rotation_r": (lambda tmp: QUICK.replace("v_rule = diag_V\nv_params = c=-1.0",
                                                      "v_rule = rotation_V\nv_params = r=abc"),
                            "rule 'rotation_V' parameter 'r' takes a number, got 'abc'"),
    "bool_for_rotation_r": (lambda tmp: QUICK.replace("v_rule = diag_V\nv_params = c=-1.0",
                                                      "v_rule = rotation_V\nv_params = r=true"),
                            "rule 'rotation_V' parameter 'r' takes a number, got True"),
    "word_for_anisotropic_theta": (lambda tmp: QUICK.replace("dim = 1", "dim = 2").replace(
                                       "q_rule = identity_Q", "q_rule = anisotropic_Q\nq_params = theta=abc"),
                                   "rule 'anisotropic_Q' parameter 'theta' takes a number, got 'abc'"),
    # [problem]'s rules are checked at load, also when no listed check judges [problem].
    "word_for_unjudged_rotation_r": (lambda tmp: _checks(QUICK, "nongeneration").replace(
                                         "v_rule = diag_V\nv_params = c=-1.0", "v_rule = rotation_V\nv_params = r=abc"),
                                     "[problem] rule 'rotation_V' parameter 'r' takes a number, got 'abc'"),
    "unknown_unjudged_rotation_parameter": (lambda tmp: _checks(QUICK, "nongeneration").replace(
                                                "v_rule = diag_V\nv_params = c=-1.0", "v_rule = rotation_V\nv_params = q=1"),
                                            "[problem] rule 'rotation_V' has no parameter 'q'"),
    # A rule parameter is run as it is echoed: set once, and taken by the rule.
    "repeated_rule_parameter": (lambda tmp: QUICK.replace("v_rule = diag_V\nv_params = c=-1.0",
                                                          "v_rule = rotation_V\nv_params = r=1.5, r=1.9"),
                                "rule parameter 'r' is set twice; set it once"),
    "theta_for_1d_anisotropic": (lambda tmp: QUICK.replace("q_rule = identity_Q",
                                                           "q_rule = anisotropic_Q\nq_params = theta=0.6"),
                                 "[problem] rule 'anisotropic_Q' parameter 'theta' rotates 2D axes; dim = 1 "
                                 "takes theta = 0, got 0.6"),
    # Lanczos cannot read a resolvent norm this far from the operator.
    "far_shift_invariance_mu": (lambda tmp: _override_body("shift_invariance", "mu = 1e155"),
                                "[check.shift_invariance] mu must lie in [-1e150, 1e150], got 1e+155"),
    "far_shift_invariance_sigma": (lambda tmp: _override_body("shift_invariance", "sigmas = 1, -1e155"),
                                   "[check.shift_invariance] sigmas must lie in [-1e150, 1e150], "
                                   "got [1.0, -1e+155]"),
}


def _coupled(body):
    """body with a coupling of negative off-diagonal entry b that couples both components."""
    return body.replace("v_rule = diag_V\nv_params = c=-1.0",
                        "v_rule = coupled_V\nv_params = a=-2.0, b=-0.5, c=0.5")


def _degenerate(body):
    """body with the degenerate coupling |x| [[-1, 1], [1, -1]], unshifted."""
    return body.replace("v_rule = diag_V\nv_params = c=-1.0", "v_rule = degenerate_V")


def _checks(body, names):
    """body running only `names`, without QUICK's [check.positivity] section."""
    return body.replace("contraction, positivity", names).replace("[check.positivity]\nn_random = 5\n", "")


def _override_body(check, line):
    """QUICK running only `check`, with one [check.<name>] override line."""
    return QUICK.replace("contraction, positivity", check).replace(
        "[check.positivity]\nn_random = 5", f"[check.{check}]\n{line}")


class TestMalformedInputs:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_config_error(self, tmp_path, capsys, case):
        make_body, fragment = MALFORMED[case]
        cfg = write_cfg(tmp_path, make_body(tmp_path))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert fragment in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case", ["fraction_for_run_steps", "bool_for_run_t_final",
                                      "float_for_problem_cells", "negative_seed",
                                      "duplicate_key", "unknown_section", "unknown_run_key",
                                      "unknown_output_key", "unknown_override_key", "retired_commutator_check",
                                      "nan_t_forward",
                                      "inf_consistency_lam", "inf_problem_extent",
                                      "unused_override_section", "no_positivity_draws", "repeated_check",
                                      "contraction_slack", "consistency_tol", "positivity_floor",
                                      "domination_slack", "ultracontractivity_tol", "shift_invariance_tol",
                                      "compactness_k", "single_ultracontractivity_point",
                                      "decreasing_trotter_schedule", "repeated_trotter_schedule",
                                      "decreasing_extents", "run_max_iters", "zero_in_trotter_schedule",
                                      "negative_consistency_lam",
                                      "nonpositive_consistency_lam", "negative_nongeneration_lam",
                                      "zero_components", "negative_components",
                                      "unknown_run_scheme", "unknown_run_substep", "zero_run_steps",
                                      "negative_run_t_final", "run_solver_tol",
                                      "three_dimensional_problem", "two_cell_problem",
                                      "negative_problem_extent", "unknown_problem_shift",
                                      "large_problem_alpha",
                                      "negative_problem_alpha", "short_trotter_schedule",
                                      "short_extents",
                                      "no_domination_times", "no_shift_invariance_sigmas",
                                      "zero_positivity_t_forward", "negative_domination_time",
                                      "zero_degenerate_kernel_t", "zero_degenerate_kernel_steps",
                                      "zero_consistency_horizon", "zero_consistency_steps", "zero_trotter_t",
                                      "zero_nongeneration_h_target", "negative_nongeneration_extent",
                                      "zero_shift_invariance_extent", "two_cell_shift_invariance",
                                      "zero_degenerate_kernel_extent", "two_cell_degenerate_kernel",
                                      "zero_compactness_h_target",
                                      "zero_compactness_extent",
                                      "oversize_shift_invariance_grid", "oversize_degenerate_kernel_grid",
                                      "far_shift_invariance_mu",
                                      "far_shift_invariance_sigma", "word_for_unjudged_rotation_r",
                                      "unknown_unjudged_rotation_parameter", "repeated_rule_parameter",
                                      "theta_for_1d_anisotropic", "oversize_components"])
    def test_refused_at_load(self, tmp_path, monkeypatch, case):
        """Refused by load_config itself, before any problem is built."""
        monkeypatch.setattr(cli, "build_problem", None)
        make_body, fragment = MALFORMED[case]
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, make_body(tmp_path)))
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("command", [["validate"], ["spectrum", "--k", "2"],
                                         ["resolvent", "--lam-re", "2.0"]])
    def test_empty_check_list_serves_other_commands(self, tmp_path, command):
        """The benchmark's validate, spectrum and resolvent configs list no check."""
        cfg = write_cfg(tmp_path, _checks(QUICK, ""))
        assert load_config(cfg).checks == []
        out = ["--out", str(tmp_path / "o")] if command[0] != "validate" else []
        assert main([command[0], "--config", str(cfg), *out, *command[1:]]) == EXIT_OK

    def test_bundled_and_benchmark_overrides_accepted(self, tmp_path):
        body = QUICK.replace("contraction, positivity", "contraction, positivity, trotter_order, "
                             "shift_invariance, nongeneration")
        body = body.replace("[check.positivity]", "[check.trotter_order]\nt = 0.5\n\n"
                             "[check.shift_invariance]\nmu = 1.0\nn_per_axis = 400\n\n"
                             "[check.nongeneration]\nlam = 1.0\nextents = 50.0, 100.0\n\n"
                             "[check.positivity]")
        cfg = load_config(write_cfg(tmp_path, body))
        assert cfg.overrides["positivity"] == {"n_random": 5}
        assert cfg.overrides["shift_invariance"] == {"mu": 1.0, "n_per_axis": 400}

    @pytest.mark.parametrize("check, line", [
        ("shift_invariance", "sigmas = 1.0\nn_per_axis = 200"),
        ("domination", "ts = 0.1"),
    ], ids=["sigmas", "ts"])
    def test_scalar_list_override_runs(self, tmp_path, check, line):
        cfg = write_cfg(tmp_path, _override_body(check, line))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        results = json.loads((tmp_path / "o" / "bundle.json").read_text())["results"]
        assert len(results) == 1 and len(results[0]["measured"]) >= 1


@pytest.mark.parametrize("body, fragment", [
    (QUICK.replace("extent = 6.0", "extent = 1e-300"), "extent = 1e-300 is too small"),
    (_override_body("shift_invariance", "extent = 1e-300"), "extent = 1e-300 is too small"),
    # degenerate_kernel judges [problem]'s box (the "problem" row): it takes no extent
    (_override_body("degenerate_kernel", "extent = 1e-300"), "unknown key [check.degenerate_kernel] extent"),
    (QUICK.replace("extent = 6.0", "extent = 3e-153"), "extent = 3e-153 is too small"),
], ids=["problem", "shift_invariance", "degenerate_kernel", "problem_stencil"])
def test_tiny_box_exits_before_assembly(tmp_path, capsys, body, fragment):
    """A box whose spacing h has no finite 1/h^2 is refused by the grid, and
    one whose stencil diagonal ~ 4 d max q / h^2 is not finite by the
    assembly, naming the extent, before a stencil overflows."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", "--config", str(write_cfg(tmp_path, body)), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert fragment in err
    assert "RuntimeWarning" not in err and not caught
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["validate"], ["spectrum", "--k", "2"]])
def test_tiny_box_refused_at_build_by_every_command(tmp_path, capsys, command):
    """validate assembles no operator and spectrum runs no validator; both
    still refuse the overflowing stencil when the problem is built."""
    body = QUICK.replace("extent = 6.0", "extent = 3e-153")
    out = tmp_path / "o"
    assert main([command[0], "--config", str(write_cfg(tmp_path, body)), "--out", str(out),
                 *command[1:]]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: problem construction failed: extent = 3e-153 is too small" in err
    assert not out.exists()


def _built(monkeypatch) -> list:
    """The list of the validator runs ("validate") and diffusion assemblies
    ("assemble") of every Problem from now on, in order."""
    import vschro.problems

    seen = []
    for event, name in (("validate", "validate_hypotheses"), ("assemble", "assemble_diffusion")):
        def counting(*args, _fn=getattr(vschro.problems, name), _event=event):
            seen.append(_event)
            return _fn(*args)

        monkeypatch.setattr(vschro.problems, name, counting)
    return seen


class TestBuiltOnFirstRead:
    """Each command builds the parts of its Problem that it reads, once."""

    def test_validate_assembles_no_operator(self, tmp_path, monkeypatch, capsys):
        seen = _built(monkeypatch)
        assert main(["validate", "--config", str(write_cfg(tmp_path, QUICK))]) == EXIT_OK
        assert seen == ["validate"] and "eta1 = 1" in capsys.readouterr().out

    @pytest.mark.parametrize("command, flags", [("spectrum", ["--k", "2"]), ("resolvent", []),
                                                ("kernel", ["--t", "0.01"]), ("evolve", []),
                                                ("export-operator", [])])
    def test_operator_commands_run_no_validator(self, tmp_path, monkeypatch, command, flags):
        seen = _built(monkeypatch)
        assert main(_quick(tmp_path, command, *flags)) == EXIT_OK
        assert seen == ["assemble"]

    def test_compactness_runs_no_validator(self, monkeypatch):
        seen = _built(monkeypatch)
        verify.run_compactness_contrast(h_target=0.1)
        assert seen == ["assemble"] * 4  # rotation and degenerate, at R and 2R

    def test_verify_validates_once_before_its_checks(self, tmp_path, monkeypatch):
        seen = _built(monkeypatch)
        bundle, code = run_experiment(write_cfg(tmp_path, QUICK), out_dir=tmp_path / "o")
        assert code == EXIT_OK and seen == ["validate", "assemble"]
        assert bundle.hypothesis_report["offdiag_min"] == 0.0


def _setting(section, key, token):
    """QUICK with [section] key = token; a [check.<name>] key runs only that check."""
    parser = configparser.ConfigParser()
    parser.read_string(QUICK)
    if section.startswith("check."):
        parser.remove_section("check.positivity")
        parser["checks"]["names"] = section[len("check."):]
        parser.add_section(section)
    parser[section][key] = token
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


# Check keys that take 0 or -1: the resolvent line's real part and the shifts
# along it.
TAKES_ZERO_OR_MINUS_ONE = {"mu": ("0", "-1"), "sigmas": ("0", "-1")}

# Former keys: those that set a pass bar, now a constant of vschro.verify, and
# the box of degenerate_kernel, which now judges [problem]'s grid.
REMOVED_KEYS = [("check.contraction", "slack"), ("check.consistency", "tol"), ("check.positivity", "floor"),
                ("check.domination", "slack"), ("check.ultracontractivity", "tol"),
                ("check.shift_invariance", "tol"), ("check.compactness", "k"),
                ("check.degenerate_kernel", "extent"), ("check.degenerate_kernel", "n_per_axis")]


@pytest.mark.parametrize("section, key", [(section, key) for section, keys in cli._SECTION_KEYS.items()
                                          for key in keys] + REMOVED_KEYS)
def test_every_key_loads_or_is_refused(tmp_path, section, key):
    """Any value of any key loads or is a ConfigError, never another
    exception; a check key refuses 0 and -1 at load unless they are valid,
    and a former key is unknown whatever its value."""
    for i, token in enumerate(["nan", "inf", "-1", "0", "2.5", "true", "abc", "", "1e6", "1e400"]):
        path = write_cfg(tmp_path, _setting(section, key, token), name=f"{i}.cfg")
        try:
            load_config(path)
        except ConfigError as exc:
            refused = exc
        else:
            refused = None
        if (section, key) in REMOVED_KEYS:
            assert f"unknown key [{section}] {key};" in str(refused), (section, key, token, refused)
        elif section.startswith("check.") and token in ("0", "-1"):
            valid = token in TAKES_ZERO_OR_MINUS_ONE.get(key, ())
            assert (refused is None) == valid, (section, key, token, refused)
            assert valid or f"[{section}] {key} " in str(refused)


def _file(tmp, name, text):
    (tmp / name).write_text(text)
    return str(tmp / name)


def _quick(tmp, command, *flags):
    """`command` on QUICK into tmp/o, with flags."""
    return [command, "--config", str(write_cfg(tmp, QUICK)), "--out", str(tmp / "o"), *flags]


def _bundle(tmp, name, **change):
    """A one-result bundle file with `change` applied to the bundle, or to its
    result where the key is a result field."""
    result = {"name": "contraction", "passed": True, "measured": {"worst_p": 2.0}, "tolerance": 1e-8,
              "notes": ""}
    data = {"config": {}, "hypothesis_report": {}, "results": [result]}
    for key, value in change.items():
        (result if key in result else data)[key] = value
    return ["report", "--bundle", _file(tmp, name, json.dumps(data)), "--out", str(tmp / "o")]


def _out_under_a_file(tmp, argv):
    """argv with its --out moved under a regular file, where no directory can be made."""
    return [*argv, "--out", _file(tmp, "plain.txt", "") + "/o"]


# Command lines with a bad flag value, a bad bundle or an --out that cannot
# be a directory, and the stderr fragment each must produce; every one exits
# 2 and writes nothing.
BAD_ARGV = {
    "negative_snapshot_stride": (lambda tmp: _quick(tmp, "evolve", "--dump-snapshots", "-1"),
                                 "argument --dump-snapshots: must be non-negative, got -1"),
    "fraction_for_snapshot_stride": (lambda tmp: _quick(tmp, "evolve", "--dump-snapshots", "2.5"),
                                     "argument --dump-snapshots: invalid int value: '2.5'"),
    "negative_seed_flag": (lambda tmp: _quick(tmp, "evolve", "--seed", "-1"),
                           "argument --seed: must be non-negative, got -1"),
    "missing_bundle": (lambda tmp: ["report", "--bundle", str(tmp / "missing.json"), "--out", str(tmp / "o")],
                       "missing.json: FileNotFoundError"),
    "text_bundle": (lambda tmp: ["report", "--bundle", _file(tmp, "notes.txt", "not json\n"),
                                 "--out", str(tmp / "o")],
                    "notes.txt: JSONDecodeError"),
    "bundle_without_results": (lambda tmp: ["report", "--bundle",
                                            _file(tmp, "partial.json", '{"config": {}, "hypothesis_report": {}}'),
                                            "--out", str(tmp / "o")],
                               "partial.json: KeyError 'results'"),
    # Flag values outside their domain, or outside the problem the config builds.
    "negative_kernel_time": (lambda tmp: _quick(tmp, "kernel", "--t", "-1"),
                             "argument --t: must be positive, got -1.0"),
    "kernel_time_past_exp": (lambda tmp: _quick(tmp, "kernel", "--t", "1e300"),
                             "--t / [run] n_steps = 1e+300 / 20: matrix norm 5.000e+298 too large for exp"),
    "evolve_time_past_exp": (lambda tmp: ["evolve", "--config",
                                          _file(tmp, "long.cfg", QUICK.replace("t_final = 0.2", "t_final = 1e300")),
                                          "--out", str(tmp / "o")],
                             "[run] t_final / n_steps = 1e+300 / 20: matrix norm 5.000e+298 too large for exp"),
    "kernel_component_past_m": (lambda tmp: _quick(tmp, "kernel", "--t", "0.05", "--component", "5"),
                                "--component must lie in [0, 1] for this problem, got 5"),
    "kernel_cell_past_grid": (lambda tmp: _quick(tmp, "kernel", "--t", "0.05", "--cell", "999999"),
                              "--cell must lie in [0, 63] for this problem, got 999999"),
    "negative_kernel_cell": (lambda tmp: _quick(tmp, "kernel", "--t", "0.05", "--cell", "-1"),
                             "--cell must lie in [0, 63] for this problem, got -1"),
    "no_eigenpairs": (lambda tmp: _quick(tmp, "spectrum", "--k", "0"),
                      "--k must lie in [1, 20] for this problem, got 0"),
    "nan_resolvent_point": (lambda tmp: _quick(tmp, "resolvent", "--lam-re", "nan"),
                            "argument --lam-re: invalid float value: 'nan'"),
    "infinite_resolvent_point": (lambda tmp: _quick(tmp, "resolvent", "--lam-im", "0", "inf"),
                                 "argument --lam-im: invalid float value: 'inf'"),
    "nan_spectrum_shift": (lambda tmp: _quick(tmp, "spectrum", "--shift-re", "nan", "--k", "2"),
                           "argument --shift-re: invalid float value: 'nan'"),
    "far_spectrum_shift": (lambda tmp: _quick(tmp, "spectrum", "--shift-re", "1e300", "--k", "2"),
                           "argument --shift-re: must lie in [-1e150, 1e150], got 1e+300"),
    "far_spectrum_shift_im": (lambda tmp: _quick(tmp, "spectrum", "--shift-im=-1e155", "--k", "2"),
                              "argument --shift-im: must lie in [-1e150, 1e150], got -1e+155"),
    "far_resolvent_point": (lambda tmp: _quick(tmp, "resolvent", "--lam-re", "1e155"),
                            "argument --lam-re: must lie in [-1e150, 1e150], got 1e+155"),
    "far_resolvent_line": (lambda tmp: _quick(tmp, "resolvent", "--lam-im=-2e155"),
                           "argument --lam-im: must lie in [-1e150, 1e150], got -2e+155"),
    # --seed is read by evolve and verify only
    "seed_flag_on_validate": (lambda tmp: _quick(tmp, "validate", "--seed", "1"),
                              "unrecognized arguments: --seed 1"),
    # Bundle values of the wrong type are refused before anything is written.
    "number_for_measured": (lambda tmp: _bundle(tmp, "measured.json", measured=5),
                            "measured.json: TypeError result 'contraction' needs"),
    "word_in_measured": (lambda tmp: _bundle(tmp, "word.json", measured={"worst_p": "two"}),
                         "word.json: TypeError"),
    "word_for_passed": (lambda tmp: _bundle(tmp, "passed.json", passed="yes"), "passed.json: TypeError"),
    "word_for_tolerance": (lambda tmp: _bundle(tmp, "tolerance.json", tolerance="tight"),
                           "tolerance.json: TypeError"),
    "list_for_config": (lambda tmp: _bundle(tmp, "config.json", config=[]),
                        "config.json: TypeError config and hypothesis_report must be mappings"),
    "list_for_hypothesis_report": (lambda tmp: _bundle(tmp, "report.json", hypothesis_report=[]),
                                   "report.json: TypeError config and hypothesis_report must be mappings"),
    # Every command that writes makes its output directory through one
    # helper, once it has something to write.
    "evolve_out_under_a_file": (lambda tmp: _out_under_a_file(tmp, _quick(tmp, "evolve")),
                                "plain.txt/o: Not a directory"),
    "resolvent_out_under_a_file": (lambda tmp: _out_under_a_file(tmp, _quick(tmp, "resolvent")),
                                   "plain.txt/o: Not a directory"),
    "spectrum_out_under_a_file": (lambda tmp: _out_under_a_file(tmp, _quick(tmp, "spectrum", "--k", "2")),
                                  "plain.txt/o: Not a directory"),
    "kernel_out_under_a_file": (lambda tmp: _out_under_a_file(tmp, _quick(tmp, "kernel", "--t", "0.05")),
                                "plain.txt/o: Not a directory"),
    "verify_out_under_a_file": (lambda tmp: _out_under_a_file(tmp, _quick(tmp, "verify")),
                                "plain.txt/o: Not a directory"),
    "report_out_under_a_file": (lambda tmp: _out_under_a_file(tmp, _bundle(tmp, "good.json")),
                                "plain.txt/o: Not a directory"),
    "export_operator_out_under_a_file": (lambda tmp: _out_under_a_file(tmp, _quick(tmp, "export-operator")),
                                         "plain.txt/o: Not a directory"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGV))
def test_bad_command_line_exits_config_error(tmp_path, capsys, case):
    make_argv, fragment = BAD_ARGV[case]
    try:
        code = main(make_argv(tmp_path))
    except SystemExit as exc:  # argparse refuses a flag value itself
        code = exc.code
    assert code == EXIT_CONFIG
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_well_typed_bundle_is_reemitted(tmp_path):
    """The bundle the refusals above change is itself accepted."""
    assert main(_bundle(tmp_path, "good.json")) == EXIT_OK
    assert (tmp_path / "o" / "report.txt").exists()


def _keyword_defaults(check) -> dict:
    """The keyword-only parameters of check's receiver and their defaults, less
    the run's inputs it takes (verify.CHECK_INPUTS) and the benchmark's control
    operator, which no config sets."""
    params = inspect.signature(CHECKS[check]).parameters.values()
    return {p.name: p.default for p in params
            if p.kind is p.KEYWORD_ONLY and p.name not in (*verify.CHECK_INPUTS[check], "operator")}


class TestCheckKeys:
    def test_each_check_has_one_public_receiver(self):
        assert CHECKS is verify.CHECKS
        assert list(CHECKS) == list(verify.CHECK_KEYS) == list(verify.CHECK_INPUTS)
        declaring = [name for name in verify.__all__ if hasattr(getattr(verify, name), "__wrapped__")]
        assert sorted(fn.__name__ for fn in CHECKS.values()) == sorted(declaring)
        assert all(getattr(verify, fn.__name__) is fn for fn in CHECKS.values())
        for check in CHECKS:  # the receiver's keyword-only parameters are its keys
            assert set(_keyword_defaults(check)) == set(verify.CHECK_KEYS[check]), check

    def test_check_inputs_are_the_receivers_parameters(self):
        # verify builds [problem] only for a check whose receiver takes it
        assert {check for check, inputs in verify.CHECK_INPUTS.items() if "problem" not in inputs} == {
            "nongeneration", "shift_invariance", "compactness"}
        assert verify.CHECK_INPUTS["contraction"] == {"problem", "run", "seed"}
        assert verify.CHECK_INPUTS["positivity"] == {"problem", "seed"}
        assert all(inputs <= {"problem"} for check, inputs in verify.CHECK_INPUTS.items()
                   if check not in ("contraction", "positivity"))

    @pytest.mark.parametrize("check", list(CHECK_KEYS))
    def test_each_cast_matches_the_receiving_default(self, check):
        for key, default in _keyword_defaults(check).items():
            cast = CHECK_KEYS[check][key]
            if isinstance(cast, tuple):
                assert type(default) is tuple and {type(v) for v in default} == {cast[0]}
            else:
                assert type(default) is cast, (check, key)

    @pytest.mark.parametrize("check", list(CHECK_KEYS))
    def test_every_receiver_default_is_a_config_key(self, check):
        # A threshold no config sets is a constant of vschro.verify, not a
        # parameter, and a key that could be passed positionally would skip
        # its domain.
        params = inspect.signature(CHECKS[check]).parameters.values()
        defaulted = {p.name for p in params if p.default is not p.empty}
        assert defaulted - verify.CHECK_INPUTS[check] - {"operator"} == set(_keyword_defaults(check))

    def test_each_default_lies_in_its_domain(self):
        # an unset key keeps its receiver's default, a value a config could set
        for check, keys in verify.CHECK_KEYS.items():
            for key, default in _keyword_defaults(check).items():
                keys[key].admit(key, default)

    @pytest.mark.parametrize("check", list(CHECK_KEYS))
    def test_each_key_reaches_its_receiver_cast(self, check, monkeypatch, tmp_path):
        # Integers, as "3" and "3, 4" parse, so every float key must be cast
        # by load_config and reach its receiver as it was cast, next to the
        # run's inputs the receiver takes, all by keyword.
        received = {}

        def record(**kwargs):
            received.update(kwargs)
            return verify.PropertyCheckResult(check, True, {}, 0.0)

        monkeypatch.setitem(CHECKS, check, record)
        lines = "\n".join(f"{key} = {'3, 4' if isinstance(cast, tuple) else '3'}"
                          for key, cast in CHECK_KEYS[check].items())
        cfg = write_cfg(tmp_path, _override_body(check, lines))
        assert run_experiment(cfg, out_dir=tmp_path / "o")[1] == EXIT_OK
        assert set(received) == verify.CHECK_INPUTS[check] | set(CHECK_KEYS[check])
        for key, cast in CHECK_KEYS[check].items():
            if isinstance(cast, tuple):
                assert received[key] == (3, 4) and {type(v) for v in received[key]} == {cast[0]}, (check, key)
            else:
                assert received[key] == 3 and type(received[key]) is cast, (check, key)
        if "problem" in received:
            assert received["problem"].grid.n_cells == 64  # QUICK's [problem]
        if "seed" in received:
            assert received["seed"] == 3  # the run's seed, not the default
        if "run" in received:
            assert received["run"] == load_config(cfg).run


class TestCastOnce:
    BODY = _override_body("shift_invariance", "sigmas = 0.5\nmu = 1")

    def test_load_config_returns_cast_overrides(self, tmp_path):
        overrides = load_config(write_cfg(tmp_path, self.BODY)).overrides
        assert overrides == {"shift_invariance": {"sigmas": (0.5,), "mu": 1.0}}
        assert type(overrides["shift_invariance"]["mu"]) is float

    def test_run_experiment_passes_them_on_unchanged(self, tmp_path, monkeypatch):
        loaded, received = [], []

        def load(path):
            loaded.append(load_config(path))
            return loaded[-1]

        def record(**kw):
            received.append(kw)
            return verify.PropertyCheckResult("shift_invariance", True, {}, kw["mu"])

        monkeypatch.setattr(cli, "load_config", load)
        monkeypatch.setitem(CHECKS, "shift_invariance", record)
        run_experiment(write_cfg(tmp_path, self.BODY), out_dir=tmp_path / "o")
        (kw,) = received
        assert kw == loaded[0].overrides["shift_invariance"]
        assert all(kw[key] is loaded[0].overrides["shift_invariance"][key] for key in kw)
        # the bundle echoes the overrides as cast: a one-entry list and a float
        echo = json.loads((tmp_path / "o" / "bundle.json").read_text())["config"]["overrides"]
        assert echo == {"shift_invariance": {"sigmas": [0.5], "mu": 1.0}}
        assert '"mu": 1.0' in (tmp_path / "o" / "bundle.json").read_text()


QUICK_2D = QUICK.replace("dim = 1", "dim = 2").replace("n_per_axis = 64", "n_per_axis = 24").replace(
    "v_rule = diag_V\nv_params = c=-1.0\nshift = none", "v_rule = rotation_V\nv_params = r=1.5\nshift = auto")


class TestTwoDimensional:
    @pytest.mark.parametrize("check", ["consistency", "domination", "trotter_order"])
    def test_bump_checks_pass_in_2d(self, tmp_path, check):
        cfg = write_cfg(tmp_path, _checks(QUICK_2D, check))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        bundle = json.loads((tmp_path / "o" / "bundle.json").read_text())
        assert bundle["config"]["dim"] == 2 and bundle["config"]["n_per_axis"] == 24
        assert [r["name"] for r in bundle["results"]] == [check]

    def test_trotter_order_above_the_old_dense_cap(self, tmp_path):
        # 56^2 cells, m = 2: 6272 unknowns, past the 5000 a dense exponential allowed
        body = _checks(QUICK_2D, "trotter_order").replace("n_per_axis = 24", "n_per_axis = 56")
        cfg = write_cfg(tmp_path, body)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        (result,) = json.loads((tmp_path / "o" / "bundle.json").read_text())["results"]
        orders = result["measured"]
        assert all(0.7 <= orders[f"lie_order_{i}"] <= 1.3 for i in range(3))
        assert all(1.6 <= orders[f"strang_order_{i}"] <= 2.4 for i in range(3))


class TestExitCodes:
    def _verify(self, tmp_path, body):
        cfg = write_cfg(tmp_path, body)
        return main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])

    def test_corrupted_factor_is_numerical_failure(self, tmp_path, capsys, corrupt_factors):
        corrupt_factors()
        assert self._verify(tmp_path, QUICK) == EXIT_NUMERICAL
        assert "residual" in capsys.readouterr().err

    def test_fine_1d_positivity_solves_within_its_bound(self, tmp_path):
        # the solve's rounding grows with ||A|| ~ 4 tau / h^2 (25600 at 16000
        # cells), and so does the backward-error rule; a bound of 1e-12 ||b||
        # was missed here by 1.1x (exit 3)
        body = bundled_config_path("diag_baseline").read_text()
        body = body.replace("n_per_axis = 2000", "n_per_axis = 16000")
        body = body.replace("contraction, positivity, domination, ultracontractivity",
                            "positivity")
        assert self._verify(tmp_path, body) == EXIT_OK

    def test_fine_1d_spectrum_keeps_its_eigenpairs(self, tmp_path):
        # at 60000 cells ||L|| = 5.6e7, and ARPACK's residuals of 1.0e-8 to
        # 1.2e-8 are 2.1e-16 of it; an absolute limit of 1e-8 kept 2 of 6 (exit 3)
        body = bundled_config_path("rotation_r15").read_text()
        cfg = write_cfg(tmp_path, body.replace("n_per_axis = 200", "n_per_axis = 60000"))
        out = tmp_path / "o"
        assert main(["spectrum", "--config", str(cfg), "--k", "6", "--out", str(out)]) == EXIT_OK
        assert len((out / "eigenvalues.csv").read_text().splitlines()) == 1 + 6

    def test_evolve_whose_solutions_underflow(self, tmp_path):
        # tau = 1e249: the first solution is about 1e-250, whose squares
        # underflow (a bound of 0 refused it, exit 3, and its norms read 0),
        # the second is 0
        body = (QUICK.replace("n_per_axis = 64", "n_per_axis = 16").replace("c=-1.0", "c=0.0")
                .replace("n_steps = 20", "n_steps = 10").replace("t_final = 0.2", "t_final = 1e250"))
        out = tmp_path / "o"
        assert main(["evolve", "--config", str(write_cfg(tmp_path, body)), "--out", str(out),
                     "--dump-snapshots", "5"]) == EXIT_OK
        assert len(list(out.glob("field_step*.csv"))) == 3
        first = [row.split(",") for row in (out / "norms.csv").read_text().splitlines()
                 if row.startswith("1e+249,")]
        assert [p for _, p, _ in first] == ["1", "2", "4", "inf"]
        assert all(1e-251 < float(norm) < 1e-248 for _, _, norm in first)

    def test_unexpected_exception_is_internal_error(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("broken check")

        monkeypatch.setitem(CHECKS, "contraction", broken)
        assert self._verify(tmp_path, QUICK) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "internal error" in err and "broken check" in err


class TestImports:
    def test_import_defers_single_command_modules(self):
        # scipy.io loads in export-operator alone and scipy.special in the
        # nongeneration oracle alone (every other verify skips it); every
        # oracle is a closed form or a scipy.sparse/scipy.special call, so
        # nothing loads scipy.integrate or the scipy.optimize it pulls in.
        code = ("import sys, vschro.cli; print(sorted(m for m in ('scipy.io', 'scipy.special', "
                "'scipy.integrate', 'scipy.optimize') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
        assert out.stdout.strip() == "[]"
