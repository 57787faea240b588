"""Workload definitions: seeded input generation, operations and output checks.

Generation and the checks use only numpy and the text formats, so they can
be tested without importing cktlab.  An operation runs one step through the
cktlab modules the worker imported (``lib``) and returns what its check
found wrong: an empty list when the output is correct.

The output checks use mathematical invariants at the tolerances pinned in
``tests/test_acceptance.py``; no stored reference files.
"""

from __future__ import annotations

import os

import numpy as np

# Why each workload exists; the same lines are in BENCHMARK.json.
WHY = {
    "eject": "torus-eject n=3 K=3 m=0: torusmodel assembly and dense spectra do the work, "
             "polyharm/connalg almost none",
    "harmonic": "torus-eject n=3 K=1 m=5, route cross-check, check-divtype: cold "
                "polyharm/connalg harmonic blocks dominate",
    "kato_holonomy": "two holonomy probes and kato: RK4 transport and contour solves do "
                     "the work, harmonic layers and assembly none",
}

# The layers predicted to take most of the traced wall time of each workload.
DOMINANT = {
    "eject": ("torusmodel",),
    "harmonic": ("polyharm", "connalg"),
    "kato_holonomy": ("holonomy", "spectral"),
}

EJECT_POINTS = 9
EJECT_SMAX = 0.1
KATO_INSTANCES = 5


# ---------------------------------------------------------------------------
# input generation


def fourconn_text(n, r, coeffs):
    """FOURCONN payload for {(q, j): r x r complex matrix}, rows sorted by (q, j)."""
    rows = []
    for (q, j), M in sorted(coeffs.items()):
        entries = " ".join(f"{float(c.real)!r} {float(c.imag)!r}"
                           for c in np.asarray(M, dtype=complex).ravel())
        rows.append(" ".join([*map(str, q), str(j), entries]))
    return "\n".join([f"FOURCONN {n} {r} {len(rows)}", *rows]) + "\n"


def cosine_coeffs(q, j, M):
    """Fourier coefficients of M cos(q.x) dx_j for skew-Hermitian M."""
    M = np.asarray(M, dtype=complex)
    return {(tuple(q), j): M / 2, (tuple(-c for c in q), j): -M.conj().T / 2}


def norm_sq(coeffs):
    return float(sum(np.linalg.norm(M) ** 2 for M in coeffs.values()))


def random_skew(rng, r):
    M = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    return (M - M.conj().T) / 2


def eject_config(n, k, m, r, pert):
    return (f"[torus]\nn = {n}\nk = {k}\nm = {m}\nr = {r}\n\n"
            f"[perturbation]\nfile = {pert}\n\n"
            f"[scan]\nsmax = {EJECT_SMAX!r}\npoints = {EJECT_POINTS}\n")


def generate(workload, seed):
    """Inputs of one workload: {"files": {name: text}, "params": {...}}.

    The same seed gives the same inputs; only amplitudes and matrices are
    drawn, so every seed keeps the structure each check relies on.
    """
    rng = np.random.default_rng([seed, sorted(WHY).index(workload)])
    files, params = {}, {"seed": seed}
    if workload == "eject":
        # the documented single cosine mode along (0,1,0), on dx_0
        coeffs = cosine_coeffs((0, 1, 0), 0, [[1j * rng.uniform(0.3, 0.7)]])
        files["eject.fourconn"] = fourconn_text(3, 1, coeffs)
        files["eject.cfg"] = eject_config(3, 3, 0, 1, "eject.fourconn")
        params.update(torus=(3, 3, 0, 1), a_norm_sq=norm_sq(coeffs))
    elif workload == "harmonic":
        # cos(x_k) dx_{k+1}: not closed, so each mode ejects, and together the
        # three supports couple all 27 modes at K=1
        coeffs = {}
        for k in range(3):
            q = tuple(int(i == k) for i in range(3))
            coeffs.update(cosine_coeffs(q, (k + 1) % 3, [[1j * rng.uniform(0.3, 0.7)]]))
        files["harmonic.fourconn"] = fourconn_text(3, 1, coeffs)
        files["harmonic.cfg"] = eject_config(3, 1, 5, 1, "harmonic.fourconn")
        files["divtype.cfg"] = "[divtype]\nfamily = dstar\nn = 4\nm = 5\n"
        params.update(torus=(3, 1, 5, 1), a_norm_sq=norm_sq(coeffs))
    elif workload == "kato_holonomy":
        generic = {((0, 0, 0), j): random_skew(rng, 3) for j in range(3)}
        files["generic.fourconn"] = fourconn_text(3, 3, generic)
        # distinct diagonal entries: the three coordinate lines are invariant,
        # so the commutant is the diagonal algebra, of dimension 3
        diag = np.diag(1j * (np.arange(1, 4) + rng.uniform(-0.3, 0.3, 3)))
        axis = int(rng.integers(3))
        q = tuple(int(i == axis) for i in range(3))
        files["diagonal.fourconn"] = fourconn_text(3, 3, cosine_coeffs(q, (axis + 1) % 3, diag))
        for name in ("generic", "diagonal"):
            files[f"{name}.cfg"] = (f"[holonomy]\nconnection = {name}.fourconn\n"
                                    "num_geodesics = 12\n")
        files["kato.cfg"] = f"[kato]\nsize = 40\ninstances = {KATO_INSTANCES}\n"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"files": files, "params": params}


def write_inputs(workdir, inputs):
    for name, text in inputs["files"].items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# reading outputs


def read_csv(path):
    """(comments {key: value}, data rows as lists of strings) of a ckt-lab CSV."""
    comments, rows = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                comments[key.strip()] = value.strip()
            elif line:
                rows.append(line.split(","))
    return comments, rows[1:]


# ---------------------------------------------------------------------------
# checks: each returns the list of violated invariants (empty when correct)


def check_exit(rc):
    return [] if rc == 0 else [f"exit code {rc}"]


def check_eject(comments, rows, expected_kernel, a_norm_sq):
    problems = []
    s = [float(row[0]) for row in rows]
    if len(s) != EJECT_POINTS or 0.0 not in s:
        return [f"scan grid {s} lacks s = 0"]
    mid = rows[s.index(0.0)]
    if float(mid[1]) != 0.0:
        problems.append(f"lambda(0) = {mid[1]}")
    if int(mid[2]) != expected_kernel:
        problems.append(f"kernel dim at s=0 is {mid[2]}, expected {expected_kernel}")
    dot = float(comments["lambda_dot_fit"])
    if not abs(dot) <= 1e-8 * a_norm_sq:
        problems.append(f"|lambda_dot| = {abs(dot):.3e} > 1e-8 * |A|^2")
    factor = float(comments["curvature_factor"])
    if not abs(factor - 1.0) <= 0.05:
        problems.append(f"curvature factor {factor}")
    return problems


def check_routes(route_defect, adjointness_defect):
    problems = []
    if not route_defect <= 1e-10:
        problems.append(f"assembly routes differ by {route_defect:.3e}")
    if not adjointness_defect <= 1e-12:
        problems.append(f"adjointness defect {adjointness_defect:.3e}")
    return problems


def check_divtype(rows):
    verdict = rows[-1][-1] if rows else ""
    return [] if verdict == "verdict=uniform" else [f"divtype summary {verdict!r}"]


def check_kato(rows, instances):
    """kato.csv gives the absolute d1/d2 mismatches |d - dc| but not dc, so
    they are held to 1e-6 absolutely: stricter than the acceptance test's
    |d - dc| / (1 + |dc|) <= 1e-6, never looser."""
    problems = [] if len(rows) == instances else [f"{len(rows)} kato rows"]
    for row in rows:
        ident, d1, d2, _, pi = map(float, row[1:])
        if not (ident <= 1e-9 and d1 <= 1e-6 and d2 <= 1e-6 and pi <= 1e-10):
            problems.append(f"kato instance {row[0]}: {row[1:]}")
    return problems


def check_holonomy(rows, commutant_dim, verdict_prefix):
    summary = dict(f.split("=", 1) for f in rows[-1][1:]) if rows else {}
    problems = []
    if summary.get("commutant_dim") != str(commutant_dim):
        problems.append(f"commutant dim {summary.get('commutant_dim')}, "
                        f"expected {commutant_dim}")
    if not summary.get("verdict", "").startswith(verdict_prefix):
        problems.append(f"verdict {summary.get('verdict')!r}")
    projectors = rows[:-1]
    if commutant_dim > 1 and (len(projectors) != commutant_dim
                              or any(float(p[2]) > 1e-6 for p in projectors)):
        problems.append(f"projectors {projectors}")
    return problems


# ---------------------------------------------------------------------------
# operations: (name, run) with run(lib, workdir, params) -> list of problems


def _cli(lib, workdir, subcommand, config, out, seed):
    return lib.cli.run([subcommand, "--config", os.path.join(workdir, config),
                        "--out", os.path.join(workdir, out), "--seed", str(seed)])


def _eject_op(config, out):
    def run(lib, workdir, params):
        rc = _cli(lib, workdir, "torus-eject", config, out, params["seed"])
        if rc:
            return check_exit(rc)
        n, _, m, _ = params["torus"]
        comments, rows = read_csv(os.path.join(workdir, out, "eject.csv"))
        return check_eject(comments, rows, lib.polyharm.dims(n, m)[1], params["a_norm_sq"])
    return run


def _routes(lib, workdir, params):
    with open(os.path.join(workdir, "harmonic.fourconn"), encoding="utf-8") as fh:
        conn = lib.textio.load_fourier_connection(fh.read())
    cfg = lib.torusmodel.TorusConfig(*params["torus"])
    a = lib.torusmodel.assemble(cfg, conn)
    b = lib.torusmodel.assemble_via_D(cfg, conn)
    route = max(float(abs(a.xplus - b.xplus).max()), float(abs(a.xminus - b.xminus).max()))
    return check_routes(route, a.adjointness_defect)


def _divtype(lib, workdir, params):
    rc = _cli(lib, workdir, "check-divtype", "divtype.cfg", "divtype", params["seed"])
    if rc:
        return check_exit(rc)
    return check_divtype(read_csv(os.path.join(workdir, "divtype", "divtype.csv"))[1])


def _holonomy_op(name, commutant_dim, verdict_prefix):
    def run(lib, workdir, params):
        rc = _cli(lib, workdir, "holonomy", f"{name}.cfg", name, params["seed"])
        if rc:
            return check_exit(rc)
        rows = read_csv(os.path.join(workdir, name, "opacity.csv"))[1]
        return check_holonomy(rows, commutant_dim, verdict_prefix)
    return run


def _kato(lib, workdir, params):
    rc = _cli(lib, workdir, "kato", "kato.cfg", "kato", params["seed"])
    if rc:
        return check_exit(rc)
    return check_kato(read_csv(os.path.join(workdir, "kato", "kato.csv"))[1], KATO_INSTANCES)


OPERATIONS = {
    "eject": [("torus-eject", _eject_op("eject.cfg", "eject"))],
    "harmonic": [
        ("torus-eject", _eject_op("harmonic.cfg", "eject")),
        ("assembly-routes", _routes),
        ("check-divtype", _divtype),
    ],
    "kato_holonomy": [
        ("holonomy-generic", _holonomy_op("generic", 1, "opaque")),
        ("holonomy-diagonal", _holonomy_op("diagonal", 3, "not opaque")),
        ("kato", _kato),
    ],
}
