"""ckt-lab benchmark: three workloads, end-to-end metrics, traced per-layer metrics.

    python3 perfbench/run.py --workload eject --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

One client in a closed loop: each iteration is a fresh worker process
(worker.py), since every ckt-lab invocation starts with cold lru_caches,
and the next starts when the previous has ended.  Iterations repeat until
the next one would pass --seconds.  Every operation's output is checked; a
failed operation makes the exit code 1.

With --trace 0 iterations alternate between the checkout's src/ and
perfbench/reference/, a frozen copy of src/cktlab run on the same inputs.
The speed of a shared machine drifts by tens of percent for minutes at a
time, and neighbouring iterations drift together, so setup_s and wall_s are
reported as the reference's baseline time (REFERENCE_S) times the median
over src iterations of src time / mean time of the references around it.
peak_rss_mib is the median over the src iterations.  With --trace 1 only
src/ runs, traced and untraced iterations alternate, and the last line
reports per-function calls and self time, counters and the tracing overhead
(traced minus the preceding untraced wall_s).  Results (raw times included),
environment and raw spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import CACHED, COUNTERS, FUNCTIONS, LAYERS, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference"
MIN_ITERATIONS = 2  # a traced run needs one traced and one untraced iteration
WORKER_TIMEOUT_S = 150

# (setup_s, wall_s) medians of the reference's code over ten 40 s runs per
# workload on the baseline machine (2-core Xeon VM); the untraced metrics
# scale these by the src/reference ratio.
REFERENCE_S = {
    "eject": (0.621, 1.638),
    "harmonic": (0.589, 3.923),
    "kato_holonomy": (0.613, 3.414),
}
REFERENCE_SHA256 = "830cbd1698e5f871"  # source_digest(REFERENCE): the reference never changes

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}


def per_layer_units():
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({f"{name}.hit_ratio": "ratio" for name in CACHED})
    units.update({metric: unit for metric, (_, unit, _) in COUNTERS.items()})
    units["trace.overhead_s"] = "s"
    return units


def nproc():
    return len(os.sched_getaffinity(0))


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def source_digest(src):
    """Identifies the code under ``src`` where no git commit is available."""
    digest = hashlib.sha256()
    for path in sorted((src / "cktlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def warm_up(src):
    """Import cktlab.cli from ``src`` once, so .pyc files and the page cache
    are warm before any timed iteration."""
    subprocess.run([sys.executable, "-c", "import cktlab.cli"], env=worker_env(src),
                   cwd=ROOT, capture_output=True, timeout=WORKER_TIMEOUT_S, check=False)


def worker_env(src):
    threads = str(nproc())
    return dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)


def run_worker(workload, seed, traced, index, src=ROOT / "src"):
    workdir = OUT / "work" / f"{workload}-{seed}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--src", str(src),
           "--workdir", str(workdir), "--result", str(result_path)]
    launched = time.monotonic()
    proc = subprocess.run(cmd + ["--launched", repr(launched)], env=worker_env(src), cwd=ROOT,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"benchmark worker for {workload} on {src} exited with "
                         f"{proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    shutil.rmtree(workdir)
    result["traced"] = traced
    return result


def run_traced(workload, seed, seconds):
    """Closed loop of src/ workers for about ``seconds``, every second one traced."""
    results = []
    start = time.monotonic()
    while True:
        results.append(run_worker(workload, seed, len(results) % 2 == 1, len(results)))
        elapsed = time.monotonic() - start
        if (len(results) >= MIN_ITERATIONS
                and elapsed + elapsed / len(results) > seconds):
            return results


def run_alternating(workload, seed, seconds):
    """Closed loop for about ``seconds`` that alternates reference and src/
    workers, starting and ending with the reference: R S R S ... S R.
    Returns (srcs, refs), with one more reference than src iteration."""
    def reference(index):
        ref = run_worker(workload, seed, False, index, REFERENCE)
        failed = [op for op in ref["ops"] if op["problems"]]
        if failed:
            raise SystemExit(f"reference run of {workload} failed: {failed}")
        return ref

    srcs, refs = [], [reference(0)]
    start = time.monotonic()
    while True:
        srcs.append(run_worker(workload, seed, False, 2 * len(srcs) + 1))
        refs.append(reference(2 * len(srcs)))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(srcs) > seconds:
            return srcs, refs


def ratios(name, srcs, refs):
    """Each src/ iteration's ``name`` over the mean of the two reference
    iterations around it, which also cancels a drift linear in time."""
    return [src[name] * 2 / (before[name] + after[name])
            for src, before, after in zip(srcs, refs, refs[1:])]


def end_to_end(workload, srcs, refs):
    """setup_s and wall_s: the reference's baseline time times the median
    src/reference ratio; peak_rss_mib: median over the src/ iterations."""
    metrics = {name: baseline * statistics.median(ratios(name, srcs, refs))
               for name, baseline in zip(("setup_s", "wall_s"), REFERENCE_S[workload])}
    metrics["peak_rss_mib"] = statistics.median(src["peak_rss_mib"] for src in srcs)
    return metrics


def raw_medians(srcs, refs):
    """Unscaled medians of each side, for the record."""
    return {f"{side}_{name}": statistics.median(r[name] for r in results)
            for side, results in (("src", srcs), ("reference", refs))
            for name in ("setup_s", "wall_s")}


def per_layer(results):
    """Medians over traced iterations of each per-layer metric, and of each
    function's and layer's share of the iteration's wall_s.  The tracing
    overhead is the median over adjacent (untraced, traced) pairs of the
    difference of their wall_s."""
    samples, overheads = [], []
    for before, r in zip(results, results[1:]):
        if not r["traced"]:
            continue
        overheads.append(r["wall_s"] - before["wall_s"])
        times = self_times(r["spans"])
        values = {}
        for name in FUNCTIONS:
            calls, busy = times.get(name, (0, 0.0))
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = busy
        values.update(r["counts"])
        values["wall_s"] = r["wall_s"]
        samples.append(values)
    shares = {name: statistics.median(s[f"{name}.self_s"] / s["wall_s"] for s in samples)
              for name in FUNCTIONS}
    shares.update({layer: statistics.median(
        sum(s[f"{layer}.{fn}.self_s"] for fn in fns) / s["wall_s"] for s in samples)
        for layer, fns in LAYERS.items()})
    metrics = {key: statistics.median(s[key] for s in samples)
               for key in samples[0] if key != "wall_s"}
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return metrics, shares


def layer_report(workload, metrics, shares):
    lines = [f"{'function':<42} {'calls':>7} {'self_s':>9} {'share':>7}"]
    for name in FUNCTIONS:
        calls, busy = metrics[f"{name}.calls"], metrics[f"{name}.self_s"]
        if calls:
            lines.append(f"{name:<42} {calls:>7g} {busy:>9.4f} {shares[name]:>7.1%}")
    lines.append("layers: " + ", ".join(
        f"{layer} {shares[layer]:.1%}"
        for layer in sorted(LAYERS, key=lambda layer: -shares[layer]) if shares[layer] > 0))
    predicted = workloads.DOMINANT[workload]
    share = sum(shares[layer] for layer in predicted)
    verdict = "holds" if share > 0.5 else "is WRONG"
    lines.append(f"prediction: {'+'.join(predicted)} dominate {workload} "
                 f"({share:.1%} of traced wall_s) -> prediction {verdict}")
    lines.append(f"tracing overhead: {metrics['trace.overhead_s']:+.4f} s")
    for name in sorted(COUNTERS) + [f"{c}.hit_ratio" for c in CACHED]:
        lines.append(f"{name}: {metrics[name]:g}")
    return "\n".join(lines)


def run_one(workload, seed, seconds, trace):
    if trace:
        results = run_traced(workload, seed, seconds)
        untraced = [r for r in results if not r["traced"]]
        shown = {name: statistics.median(r[name] for r in untraced) for name in E2E_UNITS}
        label = "untraced iterations, unscaled"
    else:
        results, refs = run_alternating(workload, seed, seconds)
        shown = end_to_end(workload, results, refs)
        label = f"{len(refs)} reference iterations, scaled by src/reference"
    ops = [op for r in results for op in r["ops"]]
    failures = [op for op in ops if op["problems"]]
    for op in failures:
        print(f"FAILED {workload}/{op['name']}: " + "; ".join(op["problems"]))
    print(f"{workload:<14} iterations={len(results)} setup_s={shown['setup_s']:.4f} "
          f"wall_s={shown['wall_s']:.4f} peak_rss_mib={shown['peak_rss_mib']:.1f} "
          f"({label}) failed_ratio={len(failures) / len(ops):g} "
          f"({len(failures)}/{len(ops)})")
    summary = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "environment": dict(results[0]["env"], nproc=nproc(),
                                   blas_threads_pinned=nproc(), git_commit=git_commit(),
                                   src_sha256=source_digest(ROOT / "src"), seed=seed),
               "attempted": len(ops), "failed": len(failures),
               "end_to_end": shown, "iterations": [
                   {k: r[k] for k in ("traced", "setup_s", "wall_s", "peak_rss_mib", "ops")}
                   for r in results]}
    if trace:
        metrics, shares = per_layer(results)
        print(layer_report(workload, metrics, shares))
        summary["per_layer"] = metrics
        with open(OUT / f"spans-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
            json.dump([span for r in results if r["traced"] for span in r["spans"]], fh)
        units = per_layer_units()
    else:
        raw = raw_medians(results, refs)
        print("unscaled medians: " + " ".join(f"{k}={v:.4f}" for k, v in raw.items()))
        summary["raw"] = raw
        summary["reference_iterations"] = [
            {k: ref[k] for k in ("setup_s", "wall_s", "peak_rss_mib", "ops")} for ref in refs]
        metrics, units = shown, E2E_UNITS
    with open(OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print("environment: " + json.dumps(summary["environment"], sort_keys=True))
    return len(ops), len(failures), {k: {"value": v, "unit": units[k]}
                                     for k, v in metrics.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.OPERATIONS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "cktlab" / "cli.py").is_file():
        sys.exit(f"no cktlab sources under {ROOT / 'src'}: run from a ckt-lab checkout")
    if source_digest(REFERENCE) != REFERENCE_SHA256:
        sys.exit(f"{REFERENCE} differs from the frozen copy the baseline was measured on")
    OUT.mkdir(exist_ok=True)
    if not args.trace:
        warm_up(REFERENCE)
    warm_up(ROOT / "src")
    names = sorted(workloads.OPERATIONS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_one(name, args.seed, args.seconds, bool(args.trace))
        attempted += a
        failed += f
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
