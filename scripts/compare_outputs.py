"""Compare the CLI outputs of two cktlab source trees on the benchmark inputs.

    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC [SEED ...]

For each seed (default 101 105 110) and each workload of
`perfbench/workloads.py`, the workload's inputs are written with
`workloads.generate` into one directory per tree, and every CLI subcommand
the workload runs is run there, plus `torus-ckt` on each torus config (its
[torus] section, with and without the perturbation as the connection).
The subcommands no workload runs are added at each seed on fixed inputs:
`dims --n 3 --mmax 4`, `harmdecomp` on one HPOLY payload,
`commutator-factor` on `r = 3, count = 2` and on one ENDO payload,
`holonomy` on one generic r = 3 FOURCONN payload at `steps = 100`, which
is not a multiple of the transport's step chunk, so the run ends on a
short chunk, and two `kato` runs whose instances cross the perturbation
suite's stack boundaries: `size = 50, instances = 5`, which makes stacks
of 3 and 2 instances, and `size = 100, instances = 2`, which gives each
instance its own stack.  Two fixed inputs reach paths that no workload
does: an End(E) `torus-eject` at (n, K, m, r) = (3, 1, 0, 2), with its two
`torus-ckt` runs, whose perturbation M cos(x_1) dx_0, M = [[0.4i, 0.1],
[-0.1, -0.4i]], takes the ejection scan's complex Gram path; and
`holonomy` at `num_geodesics = 8, steps = 100` on a non-constant r = 3
connection, a cosine mode of amplitude 0.3 on every direction of each
mode q, |q|_inf <= 1, from a fixed seed, so Gamma varies along every
geodesic.  `check-divtype` runs the symbol families no workload does:
divergence at n = 3, forms at n = 4, k = 2, the counterexample at r = 2
and dstar in the full model at n = 3, m = 2.
Each tree runs all of it in one Python process with that tree first on the
path.
Every output file is then compared past its first line when that line is
the CSV timestamp, and reported as

    identical        the same bytes,
    same data rows   only '#' comment lines differ,
    DIFFERENT        a data row differs, or the file exists in one tree only.

A DIFFERENT file whose data rows match in number, and in fields per row,
and differ only in fields that are finite floats in both trees, is
reported as `DIFFERENT (numbers only, max rel diff 3.6e-16, max abs diff
1.1e-16)`; fields are separated by commas or whitespace, so a CSV and an
ENDO or HPOLY payload are read alike.  The numbers are the largest
|a - b| / max(|a|, |b|) and the largest |a - b| over those fields.  The
absolute difference tells a column of rounding-size defects, whose
relative difference can be of order 1, from a value that moved.  A file
whose data rows match gets the relative measure over its `# key: value`
comment lines whose values are finite floats in both trees, appended as
`same data rows (comment drift 2.5e-02)` when such a value moved.

The exit code is 0 when every file is identical and 1 otherwise.
`perfbench/workloads.py` is only read.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
SEEDS = (101, 105, 110)
# between the fields of a CSV row and of an ENDO or HPOLY payload line
FIELD_SEP = re.compile(r"[,\s]+")

# runs each (directory, out, argv) of argv[1] with the cktlab found first on
# the path; the exit code goes into the output directory, so the comparison
# shows it
RUNNER = """
import json, os, sys
from cktlab import cli
for workdir, out, argv in json.loads(sys.argv[1]):
    os.chdir(workdir)
    rc = cli.run(argv)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "exit_code"), "w", encoding="utf-8") as fh:
        fh.write(f"{rc}\\n")
"""


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ckt_config(eject_cfg, with_perturbation):
    """A torus-ckt config from a torus-eject one: its [torus] section, and the
    perturbation file as the [connection] when asked."""
    lines = eject_cfg.split("[perturbation]")[0].rstrip().splitlines()
    if with_perturbation:
        pert = eject_cfg.split("[perturbation]")[1].split("file =")[1].split()[0]
        lines += ["", "[connection]", f"file = {pert}"]
    return "\n".join(lines) + "\n"


def config_run(sub, config, out, seed):
    """(out directory, argv) of a config-driven subcommand."""
    return out, [sub, "--config", config, "--out", out, "--seed", str(seed)]


def commands(workloads, name, seed):
    """(files to write, [(out directory, argv)]) of a workload."""
    inputs = workloads.generate(name, seed)
    files = dict(inputs["files"])
    runs = []
    for config, text in inputs["files"].items():
        if not config.endswith(".cfg"):
            continue
        stem = config[:-4]
        section = text.split("]")[0].lstrip("[")
        if section == "torus":
            runs.append(config_run("torus-eject", config, f"{stem}-eject", seed))
            for with_pert, tag in ((False, "zero"), (True, "pert")):
                ckt = f"{stem}-ckt-{tag}.cfg"
                files[ckt] = ckt_config(text, with_pert)
                runs.append(config_run("torus-ckt", ckt, f"{stem}-ckt-{tag}", seed))
        elif section == "divtype":
            runs.append(config_run("check-divtype", config, stem, seed))
        elif section == "holonomy":
            runs.append(config_run("holonomy", config, stem, seed))
        elif section == "kato":
            runs.append(config_run("kato", config, stem, seed))
    return files, runs


# a generic constant connection on C^3 over the 3-torus: one complex
# skew-Hermitian matrix per direction, entries row-major as (re, im)
GENERIC_R3 = "FOURCONN 3 3 3\n" + "".join(f"0 0 0 {j} {row}\n" for j, row in enumerate((
    "0.0 0.3 0.2 0.1 -0.1 0.4 -0.2 0.1 0.0 -0.5 0.3 0.2 0.1 0.4 -0.3 0.2 0.0 0.2",
    "0.0 -0.4 0.1 -0.3 0.5 0.0 -0.1 -0.3 0.0 0.1 -0.2 0.6 -0.5 0.0 0.2 0.6 0.0 0.3",
    "0.0 0.2 -0.3 0.3 0.0 0.4 0.3 0.3 0.0 0.0 0.1 -0.2 0.0 0.4 -0.1 -0.2 0.0 -0.6",
)))


def curved_r3(workloads):
    """FOURCONN text of a non-constant r = 3 connection: for each mode pair
    q, -q with |q|_inf <= 1, and for q = 0, a cosine mode of amplitude 0.3
    on each direction, drawn from a fixed seed."""
    rng = np.random.default_rng(29)
    coeffs = {}
    for q in itertools.product((-1, 0, 1), repeat=3):
        if q >= tuple(-c for c in q):
            for j in range(3):
                coeffs.update(workloads.cosine_coeffs(q, j, 0.3 * workloads.random_skew(rng, 3)))
    return workloads.fourconn_text(3, 3, coeffs)


def other_commands(workloads, seed):
    """(files to write, runs) of the subcommands and paths no workload runs,
    on fixed inputs."""
    # End(E) at (3, 1, 0, 2): the perturbation's complex matrix entries keep
    # the scan's Gram matrices complex
    endo = workloads.eject_config(3, 1, 0, 2, "endo-pert.fourconn").replace(
        "r = 2\n", "r = 2\nbundle_kind = endomorphism\n")
    files = {
        "p.hpoly": "HPOLY 3 4 3\n1.0 0.0 4 0 0\n0.5 -1.0 2 1 1\n-0.25 0.0 0 0 4\n",
        "harmdecomp.cfg": "[harmdecomp]\ninput = p.hpoly\n",
        "u.endo": "ENDO 2\n0.0 1.0 2.0 1.0\n-2.0 1.0 0.0 -1.0\n",
        "commutator-file.cfg": "[commutator]\ninput = u.endo\n",
        "commutator-random.cfg": "[commutator]\nr = 3\ncount = 2\n",
        "generic-r3.fourconn": GENERIC_R3,
        "holonomy-steps100.cfg": ("[holonomy]\nconnection = generic-r3.fourconn\n"
                                  "num_geodesics = 8\nsteps = 100\n"),
        "kato-size50.cfg": "[kato]\nsize = 50\ninstances = 5\n",
        "kato-size100.cfg": "[kato]\nsize = 100\ninstances = 2\n",
        "endo-pert.fourconn": workloads.fourconn_text(3, 2, workloads.cosine_coeffs(
            (0, 1, 0), 0, [[0.4j, 0.1], [-0.1, -0.4j]])),
        "endo-eject.cfg": endo,
        "endo-ckt-zero.cfg": ckt_config(endo, False),
        "endo-ckt-pert.cfg": ckt_config(endo, True),
        "curved-r3.fourconn": curved_r3(workloads),
        "holonomy-curved.cfg": ("[holonomy]\nconnection = curved-r3.fourconn\n"
                                "num_geodesics = 8\nsteps = 100\n"),
    }
    divtypes = {"divtype-divergence": "family = divergence\nn = 3\n",
                "divtype-forms": "family = forms\nn = 4\nk = 2\n",
                "divtype-counterexample": "family = counterexample\nr = 2\n",
                "divtype-full": "family = dstar\nmodel = full\nn = 3\nm = 2\n"}
    files.update((f"{stem}.cfg", f"[divtype]\n{body}") for stem, body in divtypes.items())
    runs = [("dims", ["dims", "--n", "3", "--mmax", "4", "--out", "dims", "--seed", str(seed)])]
    runs += [config_run("check-divtype", f"{stem}.cfg", stem, seed) for stem in divtypes]
    runs += [config_run(sub, f"{stem}.cfg", stem, seed) for sub, stem in (
        ("harmdecomp", "harmdecomp"), ("commutator-factor", "commutator-file"),
        ("commutator-factor", "commutator-random"), ("holonomy", "holonomy-steps100"),
        ("kato", "kato-size50"), ("kato", "kato-size100"), ("torus-eject", "endo-eject"),
        ("torus-ckt", "endo-ckt-zero"), ("torus-ckt", "endo-ckt-pert"),
        ("holonomy", "holonomy-curved"))]
    return files, runs


def run_tree(src, cases):
    """Write every case's inputs and run all its subcommands on the tree at
    src, in one process: cases are (directory, files, runs)."""
    todo = []
    for workdir, files, runs in cases:
        os.makedirs(workdir)
        for name, text in files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        todo.extend((workdir, *run) for run in runs)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, "-c", RUNNER, json.dumps(todo)], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def outputs(workdir, runs):
    """{relative path: lines} of every file the runs wrote."""
    found = {}
    for out, _ in runs:
        for path in sorted(pathlib.Path(workdir, out).iterdir()):
            lines = path.read_text(encoding="utf-8").splitlines()
            if lines and lines[0].startswith("# timestamp:"):
                lines = lines[1:]
            found[os.path.join(out, path.name)] = lines
    return found


def numbers_only(old_rows, new_rows):
    """The largest relative and the largest absolute difference of the
    fields that differ between two lists of data rows, or None unless the
    lists have as many rows, each row as many fields separated by commas
    or whitespace, and every differing field is a finite float in both."""
    if len(old_rows) != len(new_rows):
        return None
    worst = worst_abs = 0.0
    for old_row, new_row in zip(old_rows, new_rows):
        old_fields, new_fields = FIELD_SEP.split(old_row), FIELD_SEP.split(new_row)
        if len(old_fields) != len(new_fields):
            return None
        for a, b in zip(old_fields, new_fields):
            if a == b:
                continue
            x, y = _float(a), _float(b)
            if x is None or y is None:
                return None
            worst, worst_abs = max(worst, _rel_diff(x, y)), max(worst_abs, abs(x - y))
    return worst, worst_abs


def _float(text):
    """text as a finite float, or None."""
    try:
        x = float(text)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def _rel_diff(x, y):
    """|x - y| / max(|x|, |y|), 0 for equal numbers."""
    return abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0


def comment_drift(old, new):
    """The largest relative difference over the `# key: value` lines of two
    files whose key appears in both and whose value is a finite float in
    both; None when there is no such key."""
    def values(lines):
        found = {}
        for line in lines:
            key, sep, value = line[2:].partition(": ")
            x = _float(value) if line.startswith("# ") and sep else None
            if x is not None:
                found[key] = x
        return found

    old_values, new_values = values(old), values(new)
    shared = old_values.keys() & new_values.keys()
    if not shared:
        return None
    return max(_rel_diff(old_values[k], new_values[k]) for k in shared)


def verdict(old, new):
    if old == new:
        return "identical"
    if old is None or new is None:
        return "DIFFERENT"
    old_rows, new_rows = ([ln for ln in lines if not ln.startswith("#")] for lines in (old, new))
    if old_rows == new_rows:
        return "same data rows"
    worst = numbers_only(old_rows, new_rows)
    if worst is None:
        return "DIFFERENT"
    return f"DIFFERENT (numbers only, max rel diff {worst[0]:.1e}, max abs diff {worst[1]:.1e})"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("seeds", nargs="*", type=int, default=list(SEEDS))
    args = ap.parse_args(argv)
    workloads = load_workloads()
    cases = [(seed, name, *commands(workloads, name, seed))
             for seed in args.seeds for name in sorted(workloads.OPERATIONS)]
    cases += [(seed, "other", *other_commands(workloads, seed)) for seed in args.seeds]
    all_identical = True
    with tempfile.TemporaryDirectory() as tmp:
        found = {}
        for tree, src in (("old", args.old_src), ("new", args.new_src)):
            dirs = {(seed, name): os.path.join(tmp, tree, f"{name}-{seed}")
                    for seed, name, _, _ in cases}
            run_tree(src, [(dirs[seed, name], files, runs) for seed, name, files, runs in cases])
            found[tree] = {(seed, name): outputs(dirs[seed, name], runs)
                           for seed, name, _, runs in cases}
        for seed, name, _, _ in cases:
            old, new = found["old"][seed, name], found["new"][seed, name]
            for path in sorted(set(old) | set(new)):
                result = verdict(old.get(path), new.get(path))
                all_identical &= result == "identical"
                drift = (comment_drift(old[path], new[path]) if result == "same data rows"
                         else None)
                if drift:
                    result += f" (comment drift {drift:.1e})"
                print(f"seed {seed} {name} {path}: {result}")
    print("all identical" if all_identical else "some outputs differ")
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
