"""matchcliff benchmark: one workload per process, every answer checked.

    python3 bench/run.py --workload fresh_circuits --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  Result
and span files go to `bench/out/`.  See bench/README.md.
"""
from __future__ import annotations

import os

# one BLAS thread unless the launcher chose otherwise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 9
END_TO_END = (
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.p90", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
MAX_REPORTED_ERRORS = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import matchcliff from this checkout's src/, or raise SystemExit."""
    pkg = ROOT / "src" / "matchcliff"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error=no matchcliff package at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import matchcliff

    if Path(matchcliff.__file__).resolve().parent != pkg:
        raise SystemExit(f"error=matchcliff imported from {matchcliff.__file__}, not {pkg}")


class Loop:
    """Ops run back to back until the time is up; only op() is timed."""

    def __init__(self, wl):
        self.wl = wl
        self.next_op = 0
        self.failed = 0
        self.errors: list = []

    def step(self, rec=None):
        """Run the next op, traced by `rec` if given; its time, or None if
        it raised."""
        inp = self.wl.prepare(self.next_op)
        self.next_op += 1
        if rec is not None:
            rec.install()
        t0 = time.perf_counter()
        try:
            answers = self.wl.op(inp)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        else:
            elapsed = time.perf_counter() - t0
        finally:
            if rec is not None:
                rec.uninstall()
        self.errors += self.wl.check(inp, answers)
        return elapsed

    def run(self, seconds: float, rec=None) -> tuple:
        """(untraced op times, traced op times) of the ops run until
        `seconds` have passed.  With a recorder every second op is traced,
        so traced and untraced ops see the machine at the same moments."""
        plain, traced = [], []
        kinds = ((plain, None), (traced, rec)) if rec else ((plain, None),)
        end = time.perf_counter() + seconds
        while True:
            for times, r in kinds:
                elapsed = self.step(r)
                if elapsed is not None:
                    times.append(elapsed)
            if time.perf_counter() >= end:
                return plain, traced


def percentile(xs, q: float) -> float:
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timed_setup(wl, tracing) -> float:
    """One set-up from cold program caches, in seconds."""
    tracing.clear_caches()
    gc.collect()
    t0 = time.perf_counter()
    wl.setup()
    elapsed = time.perf_counter() - t0
    gc.collect()
    return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error=unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        loop = Loop(wl)
        setup_times = [timed_setup(wl, tracing)]
        record = {"workload": args.workload, "seed": args.seed, "setup_s": setup_times}
        if args.trace:
            rec = tracing.Recorder()
            untraced, traced = loop.run(args.seconds, rec)
            layers = rec.layer_values(len(traced))
            overhead = percentile(traced, 0.5) - percentile(untraced, 0.5)
            print(f"tracing overhead: {overhead:.6f} s per op (traced minus untraced p50)", file=sys.stderr)
            rec.dump(OUT / f"trace_{args.workload}_seed{args.seed}.json")
            metrics = {
                name: {"value": layers[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER
            }
            record.update(op_s=traced, untraced_op_s=untraced, layers=layers, tracing_overhead_s=overhead)
        else:
            # set-ups spread evenly over the run, so that their median sees
            # the machine's speed over the whole run, as the ops do
            times = []
            for k in range(SETUP_REPEATS):
                if k:
                    setup_times.append(timed_setup(wl, tracing))
                times += loop.run(args.seconds / SETUP_REPEATS)[0]
            values = {
                "setup_s": statistics.median(setup_times),
                "op_s.p50": percentile(times, 0.5),
                "op_s.p90": percentile(times, 0.9),
                "ops_per_s": len(times) / sum(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            record.update(op_s=times)
        loop.errors += wl.final_check()
        if hasattr(wl, "route_shares") and not args.trace:
            record["route_shares"] = wl.route_shares()
            print(f"route shares: {record['route_shares']}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for err in loop.errors[:MAX_REPORTED_ERRORS]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not loop.errors,
        "attempted": loop.next_op,
        "failed": loop.failed,
        "metrics": metrics,
    }
    record.update(result)
    with open(OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
