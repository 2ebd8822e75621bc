"""Job lists of the three benchmark workloads.

Every job drives the program from outside: either `vschro.cli.main` on a
bundled or generated config, or one call into a public `vschro.verify`
function.  A job returns its exit code and a dict of verdicts; `check` holds
them against the table recorded in verdicts.json.

The seed picks the job order and the free parameters of generated inputs
(coupling coefficients, exponents, shifts, random-field seeds).  Grid sizes
and step counts never depend on it, so every seed costs the same work.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BUNDLED = ("rotation_r15", "diag_baseline", "degenerate", "nongeneration", "nonanalytic")
WORKLOADS = ("configs", "kernel2d", "probes")
SCALES = ("full", "tiny")

# Problem keys the tiny scale (smoke tests) changes in bundled configs.  A
# kernel-sup slope fit only resolves t^{-d/2} on a coarse grid when the
# potential cancels the -I of the diffusion block (the e^{-2t} decay of V = -I
# bends the fit), so the tiny diag_baseline uses V = +I.
_TINY_BUNDLED = {
    "rotation_r15": {"n_per_axis": "64"},
    "diag_baseline": {"n_per_axis": "200", "v_params": "c=1.0"},
    "degenerate": {"n_per_axis": "100"},
}


@dataclass
class Job:
    """One unit of closed-loop work.  `run(out_dir, state)` returns
    (exit_code, verdicts); `state` is shared by the jobs of one pass or, in
    a measurement, by all its runs."""

    id: str
    run: Callable[[Path, dict], tuple]


@dataclass
class Workload:
    jobs: list
    warmup: Job


def _write_cfg(path: Path, problem: dict, run=None, checks=(), overrides=None, seed=None) -> Path:
    lines = ["[problem]"] + [f"{k} = {v}" for k, v in problem.items()]
    if run:
        lines += ["[run]"] + [f"{k} = {v}" for k, v in run.items()]
    lines += ["[checks]", "names = " + ", ".join(checks)]
    for name, values in (overrides or {}).items():
        lines += [f"[check.{name}]"] + [f"{k} = {v}" for k, v in values.items()]
    if seed is not None:
        lines += ["[output]", f"seed = {seed}"]
    path.write_text("\n".join(lines) + "\n")
    return path


def _main(argv, out: Path) -> tuple:
    """cli.main with its console output captured; returns (code, stdout)."""
    from vschro import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
    return code, buf.getvalue()


def _bundle_verdicts(out: Path) -> dict:
    path = out / "bundle.json"
    if not path.is_file():
        return {}
    return {r["name"]: r["passed"] for r in json.loads(path.read_text())["results"]}


def _csv_rows(path: Path) -> list:
    if not path.is_file():
        return []
    with path.open() as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def verify_job(job_id: str, config, record_hash: str | None = None) -> Job:
    """`vschro verify`; verdicts are the bundle's per-check pass flags."""

    def run(out, state):
        code, _ = _main(["verify", "--config", str(config)], out)
        if record_hash and (out / "bundle.json").is_file():
            state[record_hash] = hashlib.sha256((out / "bundle.json").read_bytes()).hexdigest()
        return code, _bundle_verdicts(out)

    return Job(job_id, run)


def determinism_job(job_id: str, config, hash_key: str) -> Job:
    """Rerun a config whose bundle hash an earlier job recorded in `state`;
    the bundle bytes must not change."""

    def run(out, state):
        code, _ = _main(["verify", "--config", str(config)], out)
        path = out / "bundle.json"
        digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
        return code, {"same_bundle": digest is not None and digest == state.get(hash_key)}

    return Job(job_id, run)


def validate_job(job_id: str, config) -> Job:
    def run(out, state):
        code, text = _main(["validate", "--config", str(config)], out)
        rep = {}
        for line in text.splitlines():
            key, _, val = line.partition(" = ")
            try:
                rep[key.strip()] = float(val)
            except ValueError:
                continue
        finite = bool(rep) and all(math.isfinite(v) for v in rep.values())
        return code, {
            "finite": finite,
            "elliptic": rep.get("eta1", 0.0) > 0.0,
            "offdiag_nonneg": rep.get("offdiag_min", -1.0) >= 0.0,
        }

    return Job(job_id, run)


def spectrum_job(job_id: str, config, k: int) -> Job:
    def run(out, state):
        code, _ = _main(["spectrum", "--config", str(config), "--k", str(k)], out)
        rows = _csv_rows(out / "eigenvalues.csv")
        return code, {
            "converged": len(rows) == k and all(r["residual"] <= 1e-8 for r in rows),
            "stable": bool(rows) and all(r["re_lambda"] < 0.0 for r in rows),
        }

    return Job(job_id, run)


def resolvent_job(job_id: str, config, lam_re, lam_im) -> Job:
    """Resolvent scan.  Every generated generator here has numerical range in
    Re z <= -1, so the Lumer-Phillips bound ||(lam - L)^-1|| <= 1/(Re lam + 1)
    must hold."""

    def run(out, state):
        argv = ["resolvent", "--config", str(config), "--lam-re", *map(str, lam_re),
                "--lam-im", *map(str, lam_im)]
        code, _ = _main(argv, out)
        rows = _csv_rows(out / "resolvent_scan.csv")
        return code, {
            "finite": len(rows) == len(lam_re) * len(lam_im)
            and all(math.isfinite(r["norm_estimate"]) and r["norm_estimate"] > 0 for r in rows),
            "dissipative_bound": bool(rows)
            and all(r["norm_estimate"] * (r["re_lambda"] + 1.0) <= 1.0 + 1e-9 for r in rows),
        }

    return Job(job_id, run)


def call_job(job_id: str, fn_name: str, **kwargs) -> Job:
    """Direct call of a public vschro.verify check function."""

    def run(out, state):
        from vschro import verify

        result = getattr(verify, fn_name)(**kwargs)
        return 0, {result.name: result.passed}

    return Job(job_id, run)


# ---------------------------------------------------------------------------
# Workloads.

def _configs(rng, tiny, tmp: Path) -> Workload:
    """The five bundled configs in a seeded order, a sign-flipped control and
    a determinism rerun."""
    if tiny:
        import configparser

        from vschro.cli import bundled_config_path

        paths = {}
        for name in BUNDLED:
            parser = configparser.ConfigParser()
            parser.read(bundled_config_path(name))
            parser["problem"].update(_TINY_BUNDLED.get(name, {}))
            paths[name] = tmp / f"{name}.cfg"
            with paths[name].open("w") as fh:
                parser.write(fh)
    else:
        paths = {name: name for name in BUNDLED}
    control = _write_cfg(
        tmp / "control_c2.cfg",
        dict(dim=1, m=2, extent=10.0, n_per_axis=200, v_rule="diag_V", v_params="c=2.0"),
        run=dict(n_steps=20, t_final=4.0),
        checks=["contraction"],
        seed=rng.randrange(1, 10**6),
    )
    jobs = [verify_job(f"verify.{name}", paths[name],
                       record_hash="rotation_r15" if name == "rotation_r15" else None)
            for name in BUNDLED]
    jobs.append(verify_job("control.contraction_c2", control))
    rng.shuffle(jobs)
    jobs.append(determinism_job("determinism.rotation_r15", paths["rotation_r15"], "rotation_r15"))
    warmup = verify_job("warmup.nonanalytic", paths["nonanalytic"])
    return Workload(jobs, warmup)


def _kernel2d(rng, tiny, tmp: Path) -> Workload:
    """2D verify runs: the criterion-5 kernel sweep, a 9-point sweep, 2D
    contraction/positivity on both positivity branches, a sign-flipped
    control."""
    n_sweep, n_cross, n_pos, n_ctl = (96, 96, 48, 32) if tiny else (320, 128, 96, 64)
    # Criterion 5 uses V = -I, whose slope fit resolves only at n_per_axis
    # >= 320; the tiny scale uses V = +I (see _TINY_BUNDLED).
    c_sweep = 1.0 if tiny else -1.0
    sweep = _write_cfg(
        tmp / "sweep_identity.cfg",
        dict(dim=2, m=2, extent=3.2, n_per_axis=n_sweep, q_rule="identity_Q",
             v_rule="diag_V", v_params=f"c={c_sweep}", shift="none"),
        checks=["ultracontractivity"],
    )
    cross = _write_cfg(
        tmp / "sweep_cross.cfg",
        dict(dim=2, m=2, extent=3.2, n_per_axis=n_cross, q_rule="cross_Q",
             q_params="q12=0.3", v_rule="diag_V", v_params="c=1.0", shift="none"),
        checks=["ultracontractivity"],
    )
    pos_run = dict(n_steps=20, t_final=0.5)
    pos_over = {"positivity": {"n_random": 4}}
    b, c = rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)
    forward = _write_cfg(
        tmp / "pos_identity.cfg",
        dict(dim=2, m=2, extent=4.0, n_per_axis=n_pos, q_rule="identity_Q",
             v_rule="coupled_V", v_params=f"a=-2.0, b={b:.4f}, c={c:.4f}", shift="none"),
        run=pos_run, checks=["contraction", "positivity"], overrides=pos_over,
        seed=rng.randrange(1, 10**6),
    )
    b, c = -rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)
    converse = _write_cfg(
        tmp / "pos_anisotropic.cfg",
        dict(dim=2, m=2, extent=4.0, n_per_axis=n_pos, q_rule="anisotropic_Q",
             q_params="theta=0.0, ratio=0.25", v_rule="coupled_V",
             v_params=f"a=-2.0, b={b:.4f}, c={c:.4f}", shift="none"),
        run=pos_run, checks=["contraction", "positivity"], overrides=pos_over,
        seed=rng.randrange(1, 10**6),
    )
    control = _write_cfg(
        tmp / "control_c3.cfg",
        dict(dim=2, m=2, extent=4.0, n_per_axis=n_ctl, v_rule="diag_V", v_params="c=3.0"),
        run=dict(n_steps=20, t_final=4.0), checks=["contraction"],
        seed=rng.randrange(1, 10**6),
    )
    jobs = [
        verify_job("verify.sweep_identity", sweep),
        verify_job("verify.sweep_cross", cross),
        verify_job("verify.positivity_identity", forward),
        verify_job("verify.positivity_anisotropic", converse),
        verify_job("control.contraction_c3", control),
    ]
    rng.shuffle(jobs)
    return Workload(jobs, verify_job("warmup.control_c3", control))


def _probes(rng, tiny, tmp: Path) -> Workload:
    """validate / spectrum / resolvent and the problem-independent checks on
    1D and moderate 2D configs; no split-step evolution apart from
    trotter_order's small Crank-Nicolson runs."""
    n1, n_val2, n2 = (100, 64, 24) if tiny else (2000, 256, 40)
    n_trotter = (64, 100) if tiny else (64, 200)
    # Arnoldi restarts and power-iteration counts depend on these values; the
    # narrow ranges keep the work nearly the same for every seed.
    r = rng.uniform(1.4, 1.6)
    rot = dict(q_rule="identity_Q", v_rule="rotation_V", v_params=f"r={r:.4f}",
               shift="auto", alpha=0.45)
    a, b, c = -2.0, rng.uniform(0.4, 0.6), rng.uniform(0.4, 0.6)
    coupled = dict(q_rule="identity_Q", v_rule="coupled_V",
                   v_params=f"a={a}, b={b:.4f}, c={c:.4f}", shift="none")
    cfg = {
        "rot1": _write_cfg(tmp / "rot1.cfg", dict(dim=1, m=2, extent=8.0, n_per_axis=n1, **rot)),
        "deg1": _write_cfg(tmp / "deg1.cfg", dict(dim=1, m=2, extent=10.0, n_per_axis=n1,
                                                   q_rule="identity_Q", v_rule="degenerate_V",
                                                   shift="auto")),
        "cpl1": _write_cfg(tmp / "cpl1.cfg", dict(dim=1, m=2, extent=8.0, n_per_axis=n1, **coupled)),
        "diag1": _write_cfg(tmp / "diag1.cfg", dict(dim=1, m=2, extent=10.0, n_per_axis=2 * n1,
                                                    q_rule="identity_Q", v_rule="diag_V",
                                                    v_params=f"c={-rng.uniform(0.8, 1.2):.4f}",
                                                    shift="none")),
        "rot2big": _write_cfg(tmp / "rot2big.cfg", dict(dim=2, m=2, extent=6.0, n_per_axis=n_val2, **rot)),
        "rot2": _write_cfg(tmp / "rot2.cfg", dict(dim=2, m=2, extent=6.0, n_per_axis=n2, **rot)),
        "aniso2": _write_cfg(tmp / "aniso2.cfg", dict(dim=2, m=2, extent=6.0, n_per_axis=n2,
                                                      q_rule="anisotropic_Q",
                                                      q_params=f"theta={rng.uniform(0.4, 0.6):.4f}, ratio=0.5",
                                                      v_rule="coupled_V",
                                                      v_params=f"a={a}, b={b:.4f}, c={c:.4f}",
                                                      shift="none")),
    }
    lam_re = [round(rng.uniform(0.9, 1.1), 4), round(rng.uniform(2.9, 3.1), 4)]
    lam_im = [0.0, round(rng.uniform(0.9, 1.1), 4)]
    checks = {
        "trotter_coarse": _write_cfg(tmp / "trotter_coarse.cfg",
                                    dict(dim=1, m=2, extent=8.0, n_per_axis=n_trotter[0], **rot),
                                    checks=["trotter_order"]),
        "trotter_fine": _write_cfg(tmp / "trotter_fine.cfg",
                                     dict(dim=1, m=2, extent=8.0, n_per_axis=n_trotter[1], **rot),
                                     checks=["trotter_order"]),
        "compactness_1d": _write_cfg(tmp / "compactness_1d.cfg",
                                     dict(dim=1, m=2, extent=10.0, n_per_axis=n1,
                                          q_rule="identity_Q", v_rule="degenerate_V", shift="auto"),
                                     checks=["compactness"]),
        "shift_invariance_1d": _write_cfg(tmp / "shift_invariance_1d.cfg",
                                          dict(dim=1, m=1, extent=40.0, n_per_axis=4 * n1,
                                               q_rule="identity_Q", v_rule="complex_linear_V",
                                               shift="none"),
                                          checks=["shift_invariance"],
                                          overrides={"shift_invariance": {
                                              "mu": round(rng.uniform(0.9, 1.1), 4),
                                              "n_per_axis": 4 * n1}}),
        "nongeneration_1d": _write_cfg(tmp / "nongeneration_1d.cfg",
                                       dict(dim=1, m=2, extent=50.0, n_per_axis=2 * n1,
                                            q_rule="identity_Q", v_rule="upper_triangular_V",
                                            shift="none"),
                                       checks=["nongeneration"]),
        "checks_2d": _write_cfg(tmp / "checks_2d.cfg", dict(dim=2, m=2, extent=6.0, n_per_axis=n2, **rot),
                                checks=["compactness", "nongeneration", "shift_invariance"]),
    }
    jobs = [validate_job(f"validate.{name}", cfg[name])
            for name in ("rot1", "deg1", "cpl1", "diag1", "rot2big", "aniso2")]
    jobs += [spectrum_job(f"spectrum.{name}", cfg[name], k)
             for name, k in (("rot1", 10), ("deg1", 10), ("cpl1", 10), ("rot2", 8), ("aniso2", 8))]
    jobs += [resolvent_job(f"resolvent.{name}", cfg[name], lam_re, lam_im)
             for name in ("rot1", "cpl1", "diag1", "rot2", "aniso2")]
    jobs += [verify_job(f"verify.{name}", path) for name, path in checks.items()]
    jobs.append(call_job("control.shift_invariance_absolute", "run_shift_invariance_check",
                         operator="absolute_control", mu=1.0, sigmas=(1.0, 2.0, 5.0),
                         extent=40.0, n_per_axis=4 * n1))
    rng.shuffle(jobs)
    return Workload(jobs, validate_job("warmup.rot1", cfg["rot1"]))


def build(workload: str, seed: int, scale: str, tmp: Path) -> Workload:
    """Generate a workload's inputs under tmp; the same seed gives the same
    inputs."""
    rng = random.Random(f"{workload}:{seed}")
    tmp.mkdir(parents=True, exist_ok=True)
    maker = {"configs": _configs, "kernel2d": _kernel2d, "probes": _probes}[workload]
    return maker(rng, scale == "tiny", tmp)


def load_table() -> dict:
    return json.loads((Path(__file__).with_name("verdicts.json")).read_text())


def check(table: dict, workload: str, job_id: str, code, verdicts: dict) -> str | None:
    """None if the outcome matches the recorded table, else the reason."""
    expected = table.get(f"{workload}/{job_id}")
    if expected is None:
        return f"no recorded verdicts for {workload}/{job_id}"
    if code != expected["exit"]:
        return f"exit {code}, expected {expected['exit']}"
    if verdicts != expected["verdicts"]:
        return f"verdicts {verdicts}, expected {expected['verdicts']}"
    return None
