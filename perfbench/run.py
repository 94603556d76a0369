"""Benchmark entry point: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload roundtrip --seed 7 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src.  Each
operation starts when the previous one has finished, with the program's
memo caches cleared first, as in a fresh CLI call.  Results are checked
against relative residual gates after each operation's timer stops.

--trace 0 prints the end-to-end metrics: wall_s (median seconds per
verified operation), setup_s (fastest of several cold set-ups, each in a
fresh interpreter) and peak_rss_mb.  --trace 1 runs one untimed warm-up
operation, then pairs of one untraced and one traced operation for the
given time, and prints the per-layer metrics of the traced operations plus
trace.overhead_s, the median over pairs of traced minus untraced time.
Both print fail_frac and resid_ratio for reading, an environment stamp,
and as the last line one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 12
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def git_commit() -> str:
    """HEAD of the checkout's git directory, read from its files."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(args) -> dict:
    import numpy

    return {
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def time_setup(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_time.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(out.stdout.split()[-1])


def operation(wl, inp, scales: dict, tracer=None) -> dict:
    """One operation with cold program caches: its wall time, its gate summary
    and, when traced, its spans."""
    import ncperiods
    import workloads

    ncperiods.clear_caches()
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        result, error = wl.run(inp), None
    except Exception:
        result, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    spans = None
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.take()
    if error is None:
        try:
            g = workloads.gate(wl.check(inp, result, scales))
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        print(f"operation failed:\n{error}", file=sys.stderr)
        g = {"ok": False, "resid_ratio": float("nan"), "abs_breaches": []}
    return {"wall": wall, "gate": g, "spans": spans}


def closed_loop(seconds: float, step) -> list:
    """step() back to back for `seconds` (at least once): each call starts
    when the previous one has finished."""
    out = []
    t_end = time.perf_counter() + seconds
    while not out or time.perf_counter() < t_end:
        out.append(step())
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ncperiods" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for v in THREAD_VARS:
        os.environ.setdefault(v, "1")
    sys.path[:0] = [str(SRC), str(HERE)]
    import ncperiods
    import tracing
    import workloads

    if Path(ncperiods.__file__).resolve().parent != SRC / "ncperiods":
        print(f"error: imported ncperiods from {ncperiods.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env_stamp(args), sort_keys=True), flush=True)

    scales: dict = {}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()  # the first set-up in this process builds the bases cold
        inp = wl.setup(args.seed)
        tracer.uninstall()
        setup_spans = tracer.take()
        # the first operation in a process is slower; it is checked, not timed
        warm = operation(wl, inp, scales)
        pairs = closed_loop(args.seconds, lambda: (operation(wl, inp, scales),
                                                   operation(wl, inp, scales, tracer)))
        plain = [p for p, _ in pairs]
        traced = [t for _, t in pairs]
        ops = [warm] + plain + traced
        per_op = []
        for op in traced:
            m = tracing.layer_metrics(op["spans"])
            m["trace.wall_s"] = op["wall"]
            per_op.append(m)
        values = tracing.median_metrics(per_op)
        values["modforms.level_one_basis.self_s"] = sum(
            st for s, st in zip(setup_spans, tracing.self_times(setup_spans))
            if s.name == "modforms.level_one_basis")
        values["trace.overhead_s"] = statistics.median(t["wall"] - p["wall"] for p, t in pairs)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}
    else:
        # set-up is short enough that the machine's slow stretches move its
        # median by 15-30%; the fastest of several cold set-ups, half taken
        # before the timed loop and half after it, holds within a few percent
        setup = [time_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES // 2)]
        inp = wl.setup(args.seed)
        ops = closed_loop(args.seconds, lambda: operation(wl, inp, scales))
        setup += [time_setup(args.workload, args.seed)
                  for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        print("set-up samples s: " + " ".join(f"{v:.3f}" for v in setup))
        values = {
            "wall_s": statistics.median(op["wall"] for op in ops),
            "setup_s": min(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    attempted = len(ops)
    failed = sum(not op["gate"]["ok"] for op in ops)
    breaches = sorted({b for op in ops for b in op["gate"]["abs_breaches"]})
    print(f"operations: {attempted}, op wall s: "
          + " ".join(f"{op['wall']:.3f}" for op in ops))
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {failed / attempted:.6g} ratio")
    ratios = [op["gate"]["resid_ratio"] for op in ops]
    worst = float("nan") if any(r != r for r in ratios) else max(ratios)
    print(f"resid_ratio = {worst:.6g} ratio")
    print(f"absolute CLI gate would reject {len(breaches)} relatively passing checks: "
          + (", ".join(breaches) or "none"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
