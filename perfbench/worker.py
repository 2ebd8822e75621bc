"""One benchmark run inside a fresh interpreter; started by run.py.

The parent sets the BLAS thread variables before this interpreter imports
numpy.  The worker imports vschro from the checkout's src/, generates the
workload's inputs, runs one warm-up job (that ends set-up), then measures
(see `measure`) and writes its measurements as JSON.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def _blas_threads() -> dict:
    """Effective OpenBLAS thread counts of the numpy and scipy builds."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads_requested": {v: os.environ.get(v) for v in
                                   ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads_effective": _blas_threads(),
    }


def run_job(job, out: Path, state: dict, table: dict, workload: str, tracer=None) -> dict:
    import workloads

    out.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.job = job.id
        span = tracer.open(f"job.{job.id}")
    start = time.perf_counter()
    try:
        code, verdicts = job.run(out, state)
        reason = workloads.check(table, workload, job.id, code, verdicts)
    except Exception:  # a raising job is a failed job, not a crashed run
        reason = "raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.close(span)
        tracer.job = None
    return {"job": job.id, "s": seconds, "failure": reason}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(wl, tmp: Path, table: dict, workload: str, tracer=None) -> tuple:
    state = {}
    start = time.perf_counter()
    records = [run_job(job, tmp / job.id, state, table, workload, tracer) for job in wl.jobs]
    return time.perf_counter() - start, records


class SpeedProbe:
    """How fast this interpreter's vCPU runs while set-up and the jobs run.

    On a shared host another tenant's load slows a vCPU, for seconds to
    minutes at a time, independently on each vCPU, and it slows process CPU
    time as much as wall time.  Some of that load contends for the core and
    makes interpreter work up to a half slower; some contends for the caches
    and memory and can make array work nearly twice as slow.  So a timer signal every
    PERIOD_S runs a fixed piece of numerical Python in this thread, a
    pure-Python loop and one numpy add over arrays that outgrow a 2 MiB L2,
    and records how long it took.  The signal is handled between bytecodes,
    so the samples are spread over the jobs' own Python-level work.  A
    stretch's `slowdown` is the median probe time in it over REF_S; REF_S is
    a fixed scale, about the probe time on a 2.1 GHz Xeon vCPU with nothing
    contending, so a time divided by the slowdown reads as seconds on such a
    vCPU.  The probe takes about 1% of the run."""

    PERIOD_S = 0.1
    LOOP = 3000
    ARRAY = 131072  # doubles per array; three arrays take 3 MiB
    REF_S = 6.0e-4
    MIN_SAMPLES = 20  # a shorter job takes the most recent MIN_SAMPLES

    def __init__(self):
        import numpy as np

        self.add = np.add
        self.x, self.y, self.z = np.ones(self.ARRAY), np.ones(self.ARRAY), np.empty(self.ARRAY)
        self.samples = []

    def tick(self, *_):
        start = time.perf_counter()
        acc = 0
        for i in range(self.LOOP):
            acc += i * i
        self.add(self.x, self.y, out=self.z)
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, since: int) -> float:
        if not self.samples:
            self.tick()
        window = self.samples[since:]
        if len(window) < self.MIN_SAMPLES:
            window = self.samples[-self.MIN_SAMPLES:]
        return statistics.median(window) / self.REF_S


def measure(wl, tmp: Path, table: dict, workload: str, seconds: float, probe: SpeedProbe) -> tuple:
    """One pass over every job in the seeded order, then, while the budget
    lasts, more runs of single jobs: each time, of the jobs whose fastest run
    still fits the budget, the one run fewest times, and of those the
    longest.  So every job is run as often as the budget allows, a long job
    gets its next run while it still fits, and short ones fill the rest.
    Returns (records, wall time of the first pass, peak RSS in MB
    after it: later runs only add allocator growth, and how many of them
    fit the budget depends on the machine)."""
    state = {}  # shared by all runs: the determinism probe needs an earlier hash
    samples = {job.id: [] for job in wl.jobs}
    records = []

    def run(job, k):
        out = tmp / job.id / str(k)
        since = len(probe.samples)
        rec = run_job(job, out, state, table, workload)
        rec["slowdown"] = probe.slowdown(since)
        shutil.rmtree(out, ignore_errors=True)  # outside the timed region
        samples[job.id].append(rec["s"])
        records.append(rec)

    for job in wl.jobs:
        run(job, 0)
    first_pass_s = elapsed = sum(r["s"] for r in records)
    peak = peak_rss_mb()
    while True:
        fits = [j for j in wl.jobs if elapsed + min(samples[j.id]) <= seconds]
        if not fits:
            break
        job = min(fits, key=lambda j: (len(samples[j.id]), -min(samples[j.id])))
        run(job, len(samples[job.id]))
        elapsed += records[-1]["s"]
    return records, first_pass_s, peak


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    tmp = Path(args.tmp)
    # The probe runs through set-up and the untraced measurement, not while
    # spans are recorded.
    with SpeedProbe() as probe:
        import vschro.cli  # noqa: F401  (the import is part of set-up)

        if not Path(vschro.__file__).resolve().is_relative_to(src.resolve()):
            raise SystemExit(f"vschro imported from {vschro.__file__}, not from {src}")
        import workloads

        table = workloads.load_table()
        wl = workloads.build(args.workload, args.seed, args.scale, tmp / "inputs")
        warm = run_job(wl.warmup, tmp / "warmup", {}, table, args.workload)
        setup_s = time.monotonic() - args.t0
        ran = {f"{args.workload}/{job.id}" for job in (wl.warmup, *wl.jobs)}
        stale = sorted(k for k in table if k.startswith(f"{args.workload}/") and k not in ran)
        result = {"setup_s": setup_s, "setup_slowdown": probe.slowdown(0), "warmup": warm,
                  "stale_verdicts": stale}
        if not args.setup_only and not args.trace:
            recs, wall, peak = measure(wl, tmp / "jobs", table, args.workload, args.seconds, probe)
            result.update(jobs=recs, first_pass_s=wall, peak_rss_mb=peak)
    if args.trace and not args.setup_only:
        # One untraced pass to measure the tracing overhead against.
        wall, recs = run_pass(wl, tmp / "untraced", table, args.workload)
        result.update(jobs=recs, first_pass_s=wall, peak_rss_mb=peak_rss_mb())
        import tracing

        tracer = tracing.Tracer()
        names = tracing.install(tracer)
        wall, recs = run_pass(wl, tmp / "traced", table, args.workload, tracer)
        result["traced"] = {
            "wall_s": wall,
            "jobs": recs,
            "wrapped": sorted(names),
            "values": tracing.aggregate(tracer, wall),
            "spans": tracer.spans,
        }
    if not args.setup_only:
        result["env"] = environment()
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
