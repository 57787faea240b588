"""One iteration of a workload in a fresh process, so every lru_cache is cold.

Run by run.py, which sets PYTHONPATH to the checkout's src/ and pins the
BLAS thread count.  Writes its timings, per-operation outcomes, spans and
environment as JSON to --result; exits non-zero only when it cannot run
at all (for example when cktlab cannot be imported from the checkout).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback
import types

import workloads
from tracing import LAYERS, Tracer


def blas_info(np):
    """BLAS name, version and run-time thread count of numpy's build."""
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": dep.get("name"), "version": dep.get("version")}
    except (KeyError, TypeError, AttributeError):
        info = {"name": None, "version": None}
    info["threads"] = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.OPERATIONS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.monotonic() when the parent launched this process")
    args = ap.parse_args()

    import cktlab.cli  # noqa: F401  (the import cost is part of set-up)
    if os.path.dirname(os.path.abspath(cktlab.__file__)) != os.path.join(
            os.path.abspath(args.src), "cktlab"):
        sys.exit(f"cktlab imported from {cktlab.__file__}, not from {args.src}")
    inputs = workloads.generate(args.workload, args.seed)
    workloads.write_inputs(args.workdir, inputs)
    os.chdir(args.workdir)  # configs name their input files relative to it
    setup_s = time.monotonic() - args.launched

    lib = types.SimpleNamespace(**{name: importlib.import_module(f"cktlab.{name}")
                                   for name in LAYERS})
    tracer = None
    if args.trace:
        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install("cktlab")

    ops, wall_s = [], 0.0
    for name, run in workloads.OPERATIONS[args.workload]:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                problems = run(lib, args.workdir, inputs["params"])
        except Exception:  # a raising operation is a failed operation, not a crash
            problems = [traceback.format_exc(limit=3)]
        seconds = time.perf_counter() - t0
        wall_s += seconds
        ops.append({"name": name, "seconds": seconds, "problems": problems})

    import numpy as np
    import scipy
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(np),
        },
    }
    if tracer is not None:
        result.update(spans=tracer.spans, counts={**tracer.counts, **tracer.hit_ratios()})
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
