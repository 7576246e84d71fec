"""flownav benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload clear --seed 7 --seconds 15 --trace 0

Run from the root of a source checkout; flownav is imported from its
`src/` directory. Human-readable lines (machine facts, output checks, the
output digest, sample counts) come first; the last line of standard output
is the JSON result. The exit code is 0 when every output check passes, 1
when one fails and 2 when the checkout holds no flownav source.
"""

import time

_T0 = time.perf_counter()   # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="clear")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flownav", "pipeline.py")):
        print(f"run.py: no flownav source under {os.path.relpath(SRC)}",
              file=sys.stderr)
        return 2
    # numpy's thread pool is sized when numpy loads: cap it at nproc
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc
    sys.path.insert(0, SRC)
    import workloads
    import_s = time.perf_counter() - _T0
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    res = workloads.measure(args.workload, args.seed, args.seconds,
                            bool(args.trace), OUT, import_s=import_s)
    for line in res.notes:
        print(line)
    for name, (value, unit) in res.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    # a run that failed before its first timed frame has no samples; keep
    # the line valid JSON (it already reads correct: false)
    print(json.dumps({
        "correct": res.correct, "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for k, (v, u) in res.metrics.items()}}))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
