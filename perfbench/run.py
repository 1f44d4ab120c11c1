"""Measure one hiercl workload and print its metrics.

    python3 perfbench/run.py --workload desk-hecvl --seed 0 --seconds 30 --trace 0

Run from anywhere: the hiercl source is taken from ``src/`` next to this
directory, and scratch files go to ``.perfbench-work/`` there and are removed
at exit. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. End-to-end
timings are scaled to a reference speed (see ``speed.py``). The lines before
it give every figure with its sample count, the raw timings, the check
failures, and the host.
"""
import os

# numpy's OpenBLAS and any OpenMP runtime start a thread per core unless
# pinned before numpy is first imported; hiercl is a single-core program.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def blas_threads(np) -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # already loaded by numpy: same handle
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_line() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return (f"host: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} blas={blas} "
            f"blas_threads={blas_threads(np)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hiercl" / "__init__.py").is_file():
        print(f"error: no hiercl source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hiercl

    if not Path(hiercl.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported hiercl from {hiercl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(host_line())
    shown = result.per_layer if args.trace else result.end_to_end
    for name, fig in {**shown, **result.informational}.items():
        print(f"  {name:<28} {fig.value:>14.6g} {fig.unit:<13} {fig.samples}")
    for note in result.checks.notes:
        print(f"  FAILED: {note}")
    checks = result.checks
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": fig.value, "unit": fig.unit} for name, fig in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
