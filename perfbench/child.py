"""One round of a workload in a fresh interpreter.

Started by run.py, one process at a time.  ``--t0`` is the parent's
CLOCK_MONOTONIC reading just before the process was started, so setup time
runs from interpreter start until ``fbmcontrol.cli`` is imported.  Modes:

  setup  import only
  run    the workload's CLI commands through ``fbmcontrol.cli.main``
  trace  the workload's traced sequence of public calls (workloads.py)

The result, with the library versions and BLAS threads in effect, is written
as JSON to ``--result``; a failure exits non-zero.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS


def blas_info() -> dict:
    """OpenBLAS version and the thread count in effect, without threadpoolctl."""
    import numpy as np
    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = None
    info["blas_threads"] = {}  # per loaded OpenBLAS (numpy and scipy each ship one)
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in Path(path).name.lower() and ".so" in path:
                libs.add(path)
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"][Path(lib).name] = fn()
                break
    import scipy
    info["scipy"] = scipy.__version__
    info["python"] = platform.python_version()
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--config", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--run-id", default="")
    args = ap.parse_args(argv)

    import fbmcontrol
    import fbmcontrol.cli as cli
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "package": fbmcontrol.__file__,
              "pid": os.getpid()}
    result["versions"] = blas_info()
    workload = WORKLOADS[args.workload]
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    if args.mode == "run":
        args.out.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        result["exit_codes"] = [
            cli.main([*argv_, "--config", str(args.config), "--out", str(args.out)])
            for argv_ in workload.commands]
        result["run_s"] = time.perf_counter() - start
    elif args.mode == "trace":
        args.out.mkdir(parents=True, exist_ok=True)
        tracer = Tracer(args.run_id)
        start = time.perf_counter()
        result.update(workload.trace(tracer, args.config, args.out))
        result["run_s"] = time.perf_counter() - start
        result["spans"] = tracer.records()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
    result["peak_rss_mib"] = ru1.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
