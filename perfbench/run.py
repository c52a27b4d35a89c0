"""Benchmark of the sparse extended-ADMM MPCT solver.

Run from the repository root:

    python3 perfbench/run.py --workload loop_warm_n12 --seed 1 --seconds 20 --trace 0

Workloads:
  loop_warm_n12   the paper's scenario: nonlinear pendulum in closed loop from
                  x0 = (0, 0, 20 rad/s), r = 0, N = 12, warmstarted.
  loop_warm_n100  the same scenario at N = 100.
  mc_cold_n12     independent cold solves at N = 12 from seeded states in the
                  central 90 % of the box, paired with seeded references that
                  are mostly not admissible.

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
alternates plain and traced passes and prints the per-layer metrics. Every
run checks the solver's outputs. Timings are scaled to a reference host
speed that is sampled around every timed unit (see hostspeed.py for why).
The last line of standard output is one JSON object {correct, attempted,
failed, metrics}; the lines before it list every metric by name and unit
and the environment. A copy of the result,
and the spans of a traced run, are written under perfbench/results/.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("loop_warm_n12", "loop_warm_n100", "mc_cold_n12")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mpct_eadmm" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'mpct_eadmm'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    RESULTS.mkdir(exist_ok=True)
    correct, attempted, failed, metrics, details = bench.run(
        args.workload, args.seed, args.seconds, args.trace, RESULTS
    )
    env = environment(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    print(f"  attempted {attempted}  failed {failed}  correct {correct}")
    if details["solve_accounting"]:
        print("solve time " + json.dumps(details["solve_accounting"]))
    print("env " + json.dumps(env))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, trace=args.trace, env=env, details=details)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
