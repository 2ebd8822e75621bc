"""Configuration-driven experiment runner.

Configs are flat key = value text with section headers ([problem], [run],
[checks], optional [check.<name>] override sections and [output]); see the
bundled *.cfg files and the schema walk-through in the README.  A run
builds and validates the [problem] when a requested check judges it,
executes the requested checks and writes a reproducible report bundle
(bundle.json, report.txt, report.csv and a manifest of content hashes).

Exit-code contract: 0 all checks passed, 1 at least one check failed,
2 configuration error, 3 numerical failure, 4 internal error (any other
exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
import traceback
from dataclasses import asdict, dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from vschro.evolve import SolverError, SplitConfig, trotter_evolve
from vschro.fields import FieldError, make_rule
from vschro.mesh import VectorField, write_field_csv, write_field_pgm
from vschro.operators import export_matrix_market
from vschro.problems import Problem, build_problem
from vschro.spectral import eigenpairs, kernel_column, max_eigenpairs, resolvent_norm
from vschro.verify import (
    _AT_LEAST_ONE,
    _AT_LEAST_THREE,
    _HARD_CAP_UNKNOWNS,
    _NON_NEGATIVE_INT,
    _POSITIVE,
    _RESOLVENT_POINT,
    CHECK_INPUTS,
    CHECK_KEYS,
    CHECKS,
    PropertyCheckResult,
    _Domain,
)

__all__ = [
    "ExperimentConfig",
    "ReportBundle",
    "ConfigError",
    "load_config",
    "run_experiment",
    "list_experiments",
    "emit_report",
    "main",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4

_NUMERICAL_ERRORS = (SolverError, np.linalg.LinAlgError, FloatingPointError)


class ConfigError(Exception):
    pass


def _parse_scalar(text: str):
    text = text.strip()
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _parse_value(text: str):
    if "," in text:
        return [_parse_scalar(t) for t in text.split(",") if t.strip()]
    return _parse_scalar(text)


def _parse_params(text: str) -> dict:
    """'r=1.5, m=2' -> {'r': 1.5, 'm': 2}."""
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"malformed parameter {part!r}; expected key=value")
        key, val = part.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"rule parameter {key!r} is set twice; set it once")
        out[key] = _parse_scalar(val)
    return out


@dataclass
class ExperimentConfig:
    dim: int = 1
    m: int = 2
    extent: float = 8.0
    n_per_axis: int = 64
    q_rule: str = "identity_Q"
    q_params: dict = field(default_factory=dict)
    v_rule: str = "diag_V"
    v_params: dict = field(default_factory=dict)
    shift: str = "none"
    alpha: float = 0.0
    run: SplitConfig = field(default_factory=lambda: SplitConfig(n_steps=100))
    checks: list = field(default_factory=list)
    overrides: dict = field(default_factory=dict)
    output_dir: str = "vschro_out"
    seed: int = 1

    def validate(self):
        if self.shift not in ("auto", "none"):
            raise ConfigError(f"[problem] shift must be 'auto' or 'none', got {self.shift!r}")
        for key, params in (("q_params", self.q_params), ("v_params", self.v_params)):
            if "m" in params:
                raise ConfigError(f"{key} sets m; the component count is [problem] m")
        unknowns = self.n_per_axis**self.dim * self.m
        if unknowns > _HARD_CAP_UNKNOWNS:
            raise ConfigError(f"{unknowns} unknowns exceed the hard cap {_HARD_CAP_UNKNOWNS}")
        try:  # the rules and their parameters, whether or not a listed check judges [problem]
            make_rule(self.q_rule, self.dim, **self.q_params)
            make_rule(self.v_rule, self.dim, **self.v_params, m=self.m)
        except FieldError as exc:
            raise ConfigError(f"[problem] {exc}") from None
        for i, name in enumerate(self.checks):
            _known_check(name)
            if name in self.checks[:i]:
                raise ConfigError(f"[checks] names lists {name!r} twice; list each check once")
        for name in self.overrides:
            if name not in self.checks:
                raise ConfigError(f"[check.{name}] is set but {name!r} is not in [checks] names; "
                                  "remove the section or list the check")
        if self.v_rule == "rotation_V" and self.alpha > 0.0:
            r = self.v_params.get("r", 1.5)  # a number in [1, 2), by make_rule
            if not (r - 1.0) / r < self.alpha < 0.5:
                raise ConfigError(
                    f"alpha must lie in ({(r - 1.0) / r:.3f}, 0.5) for r={r}, got {self.alpha}"
                )


# The keys of each section and the cast of each value, applied once, at load:
# str keeps the text, _parse_params reads rule parameters, and every other
# cast or verify._Domain goes through _cast, where a single value for a list
# is a one-entry list.  An unset key keeps its default: that of
# ExperimentConfig, of ExperimentConfig.run for [run], and for
# [check.<name>] that of the verify function that declares it in CHECK_KEYS.
# SplitConfig refuses the [run] values outside their domains.
_SECTION_KEYS = {
    "problem": {"dim": _Domain(int, "must be 1 or 2", lambda v: v in (1, 2)),
                "m": _AT_LEAST_ONE, "extent": _POSITIVE,
                "n_per_axis": _AT_LEAST_THREE,
                "q_rule": str, "q_params": _parse_params, "v_rule": str, "v_params": _parse_params,
                "shift": str,
                "alpha": _Domain(float, "must lie in [0, 0.5)", lambda v: 0 <= v < 0.5)},
    "run": {"scheme": str, "substep": str, "n_steps": int, "t_final": float},
    "checks": {"names": str},
    "output": {"dir": str, "seed": _NON_NEGATIVE_INT},
    **{f"check.{name}": keys for name, keys in CHECK_KEYS.items()},
}


def _section(parser, section: str) -> dict:
    """The keys set in [section], cast; a key the section does not take is a
    ConfigError."""
    casts, out = _SECTION_KEYS[section], {}
    for key, text in parser[section].items() if parser.has_section(section) else ():
        if key not in casts:
            takes = f"takes: {', '.join(casts)}" if casts else "takes no keys"
            raise ConfigError(f"unknown key [{section}] {key}; [{section}] {takes}")
        elif casts[key] in (str, _parse_params):
            out[key] = casts[key](text)
        else:
            out[key] = _cast(section, key, casts[key], _parse_value(text))
    return out


def load_config(path) -> ExperimentConfig:
    """Parse a config file; bare bundled names (e.g. 'rotation_r15') resolve
    to the packaged example configs."""
    path = str(path)
    if not os.path.exists(path) and "/" not in path:
        name = path[:-4] if path.endswith(".cfg") else path
        if name in list_experiments():
            path = str(bundled_config_path(name))
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        # a duplicate key or section, a missing section header, ...; the
        # message names the line, on one line of its own
        raise ConfigError(f"cannot parse config: {' '.join(str(exc).split())}") from None
    if not read:
        raise ConfigError(f"cannot read config {path}")
    for section in parser.sections():
        if section.startswith("check."):
            _known_check(section[len("check."):])
        elif section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]; known: [problem], [run], [checks], "
                              "[output], [check.<name>]")
    try:
        cfg = ExperimentConfig(**_section(parser, "problem"))
        try:
            cfg.run = replace(cfg.run, **_section(parser, "run"))
        except ValueError as exc:  # SplitConfig names the key and the value
            raise ConfigError(f"[run] {exc}") from None
        names = _section(parser, "checks").get("names", "")
        cfg.checks = [n.strip() for n in names.split(",") if n.strip()]
        cfg.overrides = {section[len("check."):]: _section(parser, section)
                         for section in parser.sections() if section.startswith("check.")}
        output = _section(parser, "output")
        cfg.output_dir = output.get("dir", cfg.output_dir)
        cfg.seed = output.get("seed", cfg.seed)
    except configparser.InterpolationError as exc:
        raise ConfigError(f"[{exc.section}] {exc.option}: {exc}") from None
    cfg.validate()
    return cfg


@dataclass
class ReportBundle:
    config: dict
    hypothesis_report: dict
    results: list

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _strict(cast, value):
    """An int key takes an int, a float key an int or float that is a finite
    float; no key a bool."""
    if isinstance(value, bool) or not isinstance(value, int if cast is int else (int, float)):
        raise TypeError(value)
    if cast is float and not abs(value) <= sys.float_info.max:  # nan, +-inf, a huge int
        raise ValueError(value)
    return cast(value)


def _cast(section: str, key: str, cast, value):
    """value cast for [section] key, and in its domain; a ConfigError names
    both if it does not fit."""
    domain = cast
    while isinstance(cast, _Domain):
        cast = cast.cast
    try:
        if isinstance(cast, tuple):
            items = value if isinstance(value, list) else [value]
            out = tuple(_strict(cast[0], v) for v in items)
        else:
            out = _strict(cast, value)
    except TypeError:
        kind = f"a list of {cast[0].__name__}" if isinstance(cast, tuple) else cast.__name__
        raise ConfigError(f"[{section}] {key} takes {kind}, got {value!r}") from None
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be finite, got {value!r}") from None
    if isinstance(domain, _Domain):
        try:
            domain.admit(key, out)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from None
    return out


def _known_check(name: str):
    if name not in CHECKS:
        raise ConfigError(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")


def build_problem_from_config(cfg: ExperimentConfig) -> Problem:
    try:
        return build_problem(**{key: getattr(cfg, key) for key in _SECTION_KEYS["problem"]})
    except ValueError as exc:  # FieldError, GridError and AssemblyError among them
        raise ConfigError(f"problem construction failed: {exc}") from exc


def run_experiment(config_path, out_dir=None, seed=None) -> tuple:
    """Execute a config end to end; returns (bundle, exit_code).

    Writes bundle.json, report.txt, report.csv and manifest.json into the
    output directory.
    """
    cfg = load_config(config_path)
    if not cfg.checks:
        raise ConfigError("[checks] names lists no check; verify needs at least one")
    split = (cfg.run.scheme, cfg.run.substep)
    if "contraction" in cfg.checks and split != ("lie", "backward_euler"):  # the exact contraction
        raise ConfigError("contraction runs only [run] scheme = lie, substep = backward_euler; "
                          "got scheme = {}, substep = {}".format(*split))
    if out_dir is not None:
        cfg.output_dir = str(out_dir)
    if seed is not None:
        cfg.seed = int(seed)
    # each check receives the inputs its receiver takes (verify.CHECK_INPUTS),
    # and [problem] is built only if one of them judges it, and then validated first
    inputs, report = {"run": cfg.run, "seed": cfg.seed}, {}
    if any("problem" in CHECK_INPUTS[name] for name in cfg.checks):
        inputs["problem"] = build_problem_from_config(cfg)
        report = asdict(inputs["problem"].report)
    results = []
    for name in cfg.checks:
        try:
            results.append(CHECKS[name](**{key: inputs[key] for key in CHECK_INPUTS[name]},
                                        **cfg.overrides.get(name, {})))
        except ValueError as exc:
            raise ConfigError(f"check {name!r} rejected its configuration: {exc}") from exc
    bundle = ReportBundle(
        # where a bundle is written is not part of the run it reproduces
        config={key: value for key, value in asdict(cfg).items() if key != "output_dir"},
        hypothesis_report=report,
        results=results,
    )
    emit_report(bundle, cfg.output_dir, formats=("text", "csv"))
    return bundle, (EXIT_OK if bundle.all_passed else EXIT_CHECK_FAILED)


def list_experiments() -> list:
    """Names of the bundled example configs."""
    root = resources.files("vschro") / "configs"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def bundled_config_path(name: str) -> Path:
    path = resources.files("vschro") / "configs" / f"{name}.cfg"
    if not path.is_file():
        raise ConfigError(f"no bundled config {name!r}; known: {', '.join(list_experiments())}")
    return Path(str(path))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _made(out: Path) -> Path:
    """out, made as a directory if missing; a ConfigError naming it if it cannot be."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc.strerror or exc}") from None
    return out


def emit_report(bundle: ReportBundle, out_dir, formats=("text", "csv")) -> dict:
    """Write the bundle deterministically; returns the manifest.

    Field ordering is fixed and floats are rendered at 12 significant
    digits, so identical bundles produce identical bytes.
    """
    out = _made(Path(out_dir))
    written = []

    bundle_path = out / "bundle.json"
    bundle_path.write_text(json.dumps(asdict(bundle), sort_keys=True, indent=1) + "\n")
    written.append(bundle_path)

    if "text" in formats:
        lines = ["property-check report", "====================="]
        rep = bundle.hypothesis_report
        if rep:  # {} when no check judged a [problem]
            lines.append("coefficient check: " + ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(rep.items())))
        lines.append("")
        for r in bundle.results:
            lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name} (tolerance {_fmt(r.tolerance)})")
            lines.append(f"    claim: {r.notes}")
            for key in sorted(r.measured):
                lines.append(f"    {key} = {_fmt(r.measured[key])}")
        text_path = out / "report.txt"
        text_path.write_text("\n".join(lines) + "\n")
        written.append(text_path)

    if "csv" in formats:
        rows = ["check,passed,tolerance,measure,value"]
        for r in bundle.results:
            for key in sorted(r.measured):
                rows.append(
                    f"{r.name},{int(r.passed)},{_fmt(r.tolerance)},{key},{_fmt(r.measured[key])}"
                )
        csv_path = out / "report.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        written.append(csv_path)

    manifest = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# Subcommands.

def _load(args) -> tuple:
    """(config, problem, output directory) of a command's --config and --out;
    the command makes the directory once it has something to write."""
    cfg = load_config(args.config)
    return cfg, build_problem_from_config(cfg), Path(args.out or cfg.output_dir)


def _within(flag: str, value: int, low: int, high: int):
    """A ConfigError naming flag unless low <= value <= high."""
    if not low <= value <= high:
        raise ConfigError(f"{flag} must lie in [{low}, {high}] for this problem, got {value}")


def _cmd_validate(args):
    _, problem, _ = _load(args)
    for key, val in sorted(asdict(problem.report).items()):
        print(f"{key} = {_fmt(val)}")
    return EXIT_OK


def _cmd_evolve(args):
    cfg, problem, out = _load(args)
    rng = np.random.default_rng(args.seed if args.seed is not None else cfg.seed)
    vals = rng.standard_normal((problem.grid.n_cells, problem.m)) + 0j
    f = VectorField(problem.grid, vals)
    try:
        traj = trotter_evolve(problem.diffusion, problem.V, f, cfg.run, snapshot_stride=args.dump_snapshots)
    except FieldError as exc:  # the step's e^{tau V} refused
        raise ConfigError(f"[run] t_final / n_steps = {cfg.run.t_final:g} / {cfg.run.n_steps}: {exc}") from exc
    _made(out)
    rows = ["time,p,norm"]
    for p, norms in traj.norm_log.items():
        for t, v in zip(traj.times, norms):
            rows.append(f"{t:.12g},{p:g},{v:.12g}")
    (out / "norms.csv").write_text("\n".join(rows) + "\n")
    if args.dump_snapshots:  # snapshot i is of step i * stride, the last of the last step
        width = len(str(cfg.run.n_steps))
        for i, (t, snap) in enumerate(zip(traj.snapshot_times, traj.snapshots)):
            k = min(i * args.dump_snapshots, cfg.run.n_steps)
            write_field_csv(snap, out / f"field_step{k:0{width}d}_t{t:.12g}.csv")
    write_field_csv(traj.final, out / "final_field.csv")
    for comp in range(problem.m):
        write_field_pgm(traj.final, comp, out / f"final_component{comp}.pgm")
    print(f"trajectory written to {out}")
    return EXIT_OK


def _cmd_resolvent(args):
    _, problem, out = _load(args)
    _made(out)
    rows = ["re_lambda,im_lambda,norm_estimate"]
    for re in args.lam_re:
        for im in args.lam_im:
            nrm = resolvent_norm(problem.generator, complex(re, im))
            rows.append(f"{re:.12g},{im:.12g},{nrm:.12g}")
            print(f"lambda = {re:g}{im:+g}i : ||(lambda - L)^-1|| = {nrm:.6g}")
    (out / "resolvent_scan.csv").write_text("\n".join(rows) + "\n")
    return EXIT_OK


def _cmd_spectrum(args):
    _, problem, out = _load(args)
    _within("--k", args.k, 1, max_eigenpairs(problem.generator.dims))
    res = eigenpairs(problem.generator, k=args.k, shift=complex(args.shift_re, args.shift_im))
    _made(out)
    rows = ["re_lambda,im_lambda,residual"]
    for lam, r in zip(res.eigenvalues, res.residuals):
        rows.append(f"{lam.real:.12g},{lam.imag:.12g},{r:.12g}")
        print(f"lambda = {lam.real:.8g}{lam.imag:+.8g}i  residual {r:.2e}")
    (out / "eigenvalues.csv").write_text("\n".join(rows) + "\n")
    return EXIT_OK


def _cmd_kernel(args):
    cfg, problem, out = _load(args)
    cell = args.cell if args.cell is not None else problem.grid.center_cell()
    _within("--cell", cell, 0, problem.grid.n_cells - 1)
    _within("--component", args.component, 0, problem.m - 1)
    try:
        column = kernel_column(problem.diffusion, problem.V, args.t, cell, args.component, cfg.run)
    except FieldError as exc:  # the step's e^{tau V} refused
        raise ConfigError(f"--t / [run] n_steps = {args.t:g} / {cfg.run.n_steps}: {exc}") from exc
    _made(out)
    write_field_csv(column, out / "kernel_column.csv")
    for comp in range(problem.m):
        write_field_pgm(column, comp, out / f"kernel_component{comp}.pgm")
    print(f"kernel column at t={args.t:g}, sup |K| = {np.abs(column.values).max():.6g}")
    return EXIT_OK


def _cmd_verify(args):
    bundle, code = run_experiment(args.config, out_dir=args.out, seed=args.seed)
    for r in bundle.results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}")
    return code


def _check_types(bundle: ReportBundle):
    """A TypeError unless bundle holds values of the types a run writes."""

    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if not isinstance(bundle.config, dict) or not isinstance(bundle.hypothesis_report, dict):
        raise TypeError("config and hypothesis_report must be mappings")
    for r in bundle.results:
        if not (isinstance(r.passed, bool) and number(r.tolerance) and isinstance(r.measured, dict)
                and all(isinstance(k, str) and number(v) for k, v in r.measured.items())):
            raise TypeError(f"result {r.name!r} needs passed a bool, tolerance a number and "
                            "measured a mapping of names to numbers")


def _cmd_report(args):
    try:
        data = json.loads(Path(args.bundle).read_text())
        results = [PropertyCheckResult(**d) for d in data["results"]]  # the fields asdict wrote
        bundle = ReportBundle(
            config=data["config"],
            hypothesis_report=data["hypothesis_report"],
            results=results,
        )
        _check_types(bundle)
    except (OSError, ValueError, KeyError, TypeError) as exc:  # no file, JSON, bundle or types
        raise ConfigError(f"cannot read bundle {args.bundle}: {type(exc).__name__} {exc}") from None
    emit_report(bundle, args.out or ".", formats=(args.format,))
    return EXIT_OK


def _cmd_list(args):
    for name in list_experiments():
        print(name)
    return EXIT_OK


def _cmd_export_operator(args):
    _, problem, out = _load(args)
    _made(out)
    export_matrix_market(problem.generator, out / "generator.mtx")
    print(f"generator written to {out / 'generator.mtx'}")
    return EXIT_OK


def _flag(domain: _Domain):
    """argparse type= for a flag that takes the values of a config key's
    domain; argparse names the flag and exits 2 on any other value."""

    def cast(text):
        value = _strict(domain.cast, _parse_scalar(text))
        if not domain.test(value):
            raise argparse.ArgumentTypeError(f"{domain.says}, got {value!r}")
        return value

    # argparse reports _strict's TypeError or ValueError as "invalid int value: '2.5'"
    cast.__name__ = domain.cast.__name__
    return cast


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vschro",
        description="coupled-Schrodinger semigroup toolbox and property-check harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--config", required=True, help="experiment config path")
        p.add_argument("--out", default=None, help="output directory")
        if seed:
            p.add_argument("--seed", type=_flag(_NON_NEGATIVE_INT), default=None, help="seed override")

    p = sub.add_parser("validate", help="run the coefficient validator")
    common(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("evolve", help="run one trajectory and export norms")
    common(p, seed=True)
    p.add_argument(
        "--dump-snapshots", type=_flag(_NON_NEGATIVE_INT), default=0, metavar="STRIDE",
        help="also dump every STRIDE-th snapshot field as CSV (0 = final only)",
    )
    p.set_defaults(fn=_cmd_evolve)

    p = sub.add_parser("resolvent", help="resolvent-norm scan")
    common(p)
    p.add_argument("--lam-re", type=_flag(_RESOLVENT_POINT), nargs="+", default=[2.0])
    p.add_argument("--lam-im", type=_flag(_RESOLVENT_POINT), nargs="+", default=[0.0])
    p.set_defaults(fn=_cmd_resolvent)

    p = sub.add_parser("spectrum", help="eigenvalues near a shift")
    common(p)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--shift-re", type=_flag(_RESOLVENT_POINT), default=0.0)
    p.add_argument("--shift-im", type=_flag(_RESOLVENT_POINT), default=0.0)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("kernel", help="extract one kernel column")
    common(p)
    p.add_argument("--t", type=_flag(_POSITIVE), required=True)
    p.add_argument("--cell", type=int, default=None)
    p.add_argument("--component", type=int, default=0)
    p.set_defaults(fn=_cmd_kernel)

    p = sub.add_parser("verify", help="run the configured checks, write a bundle")
    common(p, seed=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("report", help="re-emit reports from a bundle.json")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("list", help="list bundled example configs")
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser("export-operator", help="dump the generator in matrix-market format")
    common(p)
    p.set_defaults(fn=_cmd_export_operator)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
