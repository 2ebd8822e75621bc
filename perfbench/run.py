"""vschro benchmark: three closed-loop workloads, one client each.

Run from the repository root:

    python3 perfbench/run.py --workload configs --seed 1 --seconds 30 --trace 0

Workloads (see NOTES.md for why each exists): `configs` runs `vschro verify`
on the five bundled configs; `kernel2d` runs generated 2D verify configs;
`probes` runs validate / spectrum / resolvent and the problem-independent
checks.  Every job's exit code and verdicts are checked against
verdicts.json.

Each run starts fresh worker interpreters with BLAS pinned to THREADS.
With --trace 0 the last stdout line holds the end-to-end metrics of
BENCHMARK.json, as seconds at a reference vCPU speed (see
worker.SpeedProbe); the human-readable lines also give the times as
measured.  With --trace 1 it holds the per-layer metrics of a traced pass,
as measured, and the spans are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS  # noqa: E402
from workloads import SCALES, WORKLOADS  # noqa: E402

THREADS = 1  # BLAS threads per worker; at most nproc = 2 on the reference machine
SETUP_RUNS = 3  # setup_s is the median over this many fresh interpreters
RUN_LIMIT_S = 170.0  # every worker of one run must end within this
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs beyond it


def _spawn(root: Path, tmp: Path, args, tag: str, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles src/ alike
    env["PYTHONHASHSEED"] = "0"  # set iteration order repeats from run to run
    result = tmp / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale,
           "--tmp", str(tmp / tag), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    subprocess.run([*cmd, "--t0", repr(t0)], cwd=root, env=env, stdout=subprocess.DEVNULL,
                   check=True, timeout=max(deadline - t0, 1.0))
    return json.loads(result.read_text())


def tail(values: list) -> tuple:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values
    beyond it; below the median that does not exist, and the maximum is
    reported as p100."""
    xs = sorted(values)
    n = len(xs)
    rank = n - TAIL_BEYOND
    if rank < math.ceil(n / 2):
        return xs[-1], 100.0
    return xs[rank - 1], 100.0 * rank / n


def _job_records(res: dict) -> list:
    return [res["warmup"], *res.get("jobs", []), *res.get("traced", {}).get("jobs", [])]


def end_to_end(main: dict, setups: list) -> tuple:
    """Times are at the reference vCPU speed: each run's seconds divided by
    the host slowdown the worker's SpeedProbe measured during it."""
    per_job = {}
    for rec in main["jobs"]:
        per_job.setdefault(rec["job"], []).append(rec["s"] / rec["slowdown"])
    job_s = [statistics.median(v) for v in per_job.values()]
    runs = sorted(len(v) for v in per_job.values())
    slowdown = statistics.median(rec["slowdown"] for rec in main["jobs"])
    tail_s, pct = tail(job_s)
    values = {
        "wall_s": sum(job_s),
        "job_p50_s": statistics.median(job_s),
        "job_tail_s": tail_s,
        "setup_s": statistics.median(s / k for s, k in setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {
        "wall_s": f"sum over jobs of each job's median run; the first pass took "
                  f"{main['first_pass_s']:.3f} s as measured, median slowdown {slowdown:.3f}",
        "job_p50_s": f"median of n={len(job_s)} jobs, each the median of {runs[0]} to {runs[-1]} runs",
        "job_tail_s": f"p{pct:.1f} of n={len(job_s)} jobs",
        "setup_s": f"median of {len(setups)} fresh interpreters; "
                   f"{statistics.median(s for s, _ in setups):.3f} s as measured",
        "peak_rss_mb": "max RSS of the measuring interpreter over set-up and one pass",
    }
    return values, notes


def per_layer(main: dict, metrics: list) -> tuple:
    traced = main["traced"]
    values = dict(traced["values"])
    untraced = main["first_pass_s"]
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_s"] = traced["wall_s"] - untraced
    wrapped = set(traced["wrapped"])
    absent = sorted({name.rsplit(".", 1)[0] for name in metrics
                     if name.split(".")[0] in LAYERS and not name.startswith("cli.verify.")
                     and name.rsplit(".", 1)[0] not in wrapped})
    values["trace.absent"] = len(absent)
    problems = []
    gap = values["trace.toplevel_gap_s"]
    if not 0.0 <= gap <= max(0.01 * traced["wall_s"], 0.05):
        problems.append(f"top-level spans miss {gap:.4f} s of the traced wall time")
    if values["trace.min_self_s"] < 0.0:
        problems.append(f"negative self time {values['trace.min_self_s']:.3e} s")
    return {name: values.get(name, 0.0) for name in metrics}, absent, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="full",
                    help="tiny runs every job on small grids (smoke tests)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "vschro" / "__init__.py").is_file():
        print(f"no src/vschro under {root}; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    deadline = time.monotonic() + RUN_LIMIT_S
    (root / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".perfbench_tmp"))
    try:
        setups = [] if args.trace else [
            _spawn(root, tmp, args, f"setup{i}", True, deadline) for i in range(SETUP_RUNS - 1)]
        main_res = _spawn(root, tmp, args, "main", False, deadline)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    records = [r for res in (*setups, main_res) for r in _job_records(res)]
    failures = [r for r in records if r["failure"]]
    problems = [f"verdicts.json lists {key}, which no job runs" for key in main_res["stale_verdicts"]]
    if args.trace:
        values, absent, trace_problems = per_layer(main_res, list(units))
        problems += trace_problems
        notes = {}
        out = root / ".perfbench_out"
        out.mkdir(exist_ok=True)
        trace_file = out / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"env": main_res["env"], "values": values,
                                          "all_values": main_res["traced"]["values"],
                                          "absent": absent,
                                          "spans": main_res["traced"]["spans"]}))
        print(f"spans written to {trace_file.relative_to(root)}")
        if absent:
            print("absent (not in this program): " + ", ".join(absent))
    else:
        values, notes = end_to_end(main_res, [(r["setup_s"], r["setup_slowdown"])
                                              for r in (*setups, main_res)])

    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"job runs {len(main_res['jobs'])}  closed loop, 1 client")
    print("env " + json.dumps(main_res["env"], sort_keys=True))
    for name, value in values.items():
        print(f"{name:<40} {value:>14.6g} {units[name]:<6} {notes.get(name, '')}")
    print(f"failed_frac {len(failures)}/{len(records)} = {len(failures) / len(records):.4g}")
    for r in failures:
        print(f"FAILED {args.workload}/{r['job']}: {r['failure']}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
