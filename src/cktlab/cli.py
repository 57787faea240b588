"""Batch experiment runner: every module behind a subcommand.

Subcommands: dims, harmdecomp, check-divtype, commutator-factor,
torus-ckt, torus-eject, kato, holonomy, selftest.  Each is one entry of
SUBCOMMANDS: its help text, its function and the table of textio.Key
entries its input is checked against.  The input is an INI-style config
(for dims, its --n and --mmax flags), and textio.resolve_config checks
every value and every key that another key's value needs.  A
subcommand's function computes and returns an Output and does no file
I/O; run() then writes the CSV, any further files and last a manifest
echoing the resolved config, so a run whose subcommand fails writes no
file.  Runs are deterministic given (config, seed).  Exit codes: 0
success, 2 validation error (an unreadable input or an unwritable --out
included), 3 numerical non-convergence; stderr carries a one-line
machine-parsable tag.

ckt-lab runs on numpy alone: no subcommand loads scipy.  Importing this
module loads only textio, errors and linalg; each subcommand's function
imports the layers it runs, so a cold run loads, beyond those:

    dims, harmdecomp            polyharm
    check-divtype               symbolcheck, connalg, symtensor, polyharm, torus
    commutator-factor           connalg, polyharm, torus
    torus-ckt, torus-eject      torusmodel, connalg, symtensor, polyharm, torus
    kato                        spectral
    holonomy                    holonomy, connalg, polyharm, torus
    selftest                    all of them

Only torusmodel assembles torus matrices, and it brings numpy.polynomial
for the ejection scan's fit; the torus module holds the truncation and
the connections and assembles nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, textio
from .errors import ConvergenceError, ValidationError
from .linalg import check_entries
from .textio import Key, nonnegative_int, positive_float

__all__ = ["main", "run"]


class Output(NamedTuple):
    """What a subcommand produced.  csv=None writes no file; files are further
    (name, text) pairs written next to the CSV; message goes to stdout."""

    csv: str | None
    rows: list | tuple = ()
    comments: list | tuple = ()
    files: tuple = ()
    message: str = ""


class Subcommand(NamedTuple):
    """A subcommand: help text, function(args, resolved) -> Output, its Key table,
    where the table's values come from ("config": the --config file; "flags": one
    --KEY flag per key; None: nowhere, and --seed is the only flag) and any
    further (flag, argparse keywords) pairs."""

    help: str
    func: Callable
    table: dict = {}
    source: str | None = "config"
    flags: tuple = ()


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


class _Draws:
    """count results of draw(), each drawn when the iteration reaches it, with a length."""

    def __init__(self, draw, count):
        self.draw, self.count = draw, count

    def __len__(self):
        return self.count

    def __iter__(self):
        return (self.draw() for _ in range(self.count))


def _random_skew_hermitian(rng, size):
    M = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return (M - M.conj().T) / 2


# ---------------------------------------------------------------------------
# subcommands


def cmd_dims(args, resolved):
    from . import polyharm as ph

    n, mmax = resolved["dims"]["n"], resolved["dims"]["mmax"]
    rows = ["m,p,h"]
    table = [f"{'m':>3} {'p':>8} {'h':>8}"]
    for m in range(mmax + 1):
        p, h = ph.dims(n, m)
        rows.append(f"{m},{p},{h}")
        table.append(f"{m:>3} {p:>8} {h:>8}")
    return Output("dims.csv" if args.out else None, rows, message="\n".join(table))


# the largest ||Laplace h||_B / ||P||_B accepted over the parts h of P (a part
# that is only rounding noise is not harmonic relative to itself); the float
# peeling loses a decade of it per degree: 4e-11 at degree 15, 2e-6 at 20
HARMONIC_CUT = 1e-10


def cmd_harmdecomp(args, resolved):
    from . import polyharm as ph

    P = textio.load_hpoly(_read(resolved["harmdecomp"]["input"]))
    rows = ["k,harmonic_degree,bombieri_norm,laplace_residual"]
    worst = 0.0
    try:
        scale, parts = ph.bombieri_norm(P), ph.harmonic_decompose(P)
        for k, h in parts:
            norm, resid = ph.bombieri_norm(h), ph.bombieri_norm(ph.laplace(h))
            rows.append(f"{k},{h.m},{norm!r},{resid!r}")
            ratio = resid / scale if 0 < scale < math.inf else math.inf
            worst = max(worst, ratio if norm < math.inf and ratio < math.inf else math.inf)
    except OverflowError:  # the integer factors outgrow a float from degree ~170
        worst = math.inf
    if not worst < HARMONIC_CUT:
        raise ConvergenceError(
            f"harmonic parts of degree {P.m} are not harmonic: the worst "
            f"||Laplace h||_B / ||P||_B is {worst:.2e}, not below the cut {HARMONIC_CUT:g}")
    return Output("harmdecomp.csv", rows,
                  files=tuple((f"part_k{k}.hpoly", textio.dump_hpoly(h)) for k, h in parts),
                  message=f"decomposed into {len(parts)} harmonic parts -> {args.out or '.'}")


def cmd_check_divtype(args, resolved):
    from . import symbolcheck as sc

    sec = resolved["divtype"]
    family = sec["family"]
    N = sec["samples"]
    seed = args.seed
    if family == "dstar":
        rep = sc.check_dstar_uniform(sec["n"], sec["m"], sec["model"], N=N, seed=seed)
    elif family == "divergence":
        rep = sc.uniform_span(sc.divergence_family(sec["n"]), N=N, seed=seed)
    elif family == "forms":
        rep = sc.uniform_span(sc.forms_family(sec["n"], sec["k"]), N=N, seed=seed)
    else:  # counterexample
        rep = sc.uniform_span(sc.counterexample_family(sec["r"]), N=N, seed=seed)
    comments = [f"family: {rep.name}", f"verdict: {rep.verdict}"]
    if rep.note:
        comments.append(f"note: {rep.note}")
    return Output("divtype.csv", rep.csv_rows(), comments,
                  message=f"{rep.name}: span {rep.span_dim}/{rep.fiber_dim} -> {rep.verdict}")


def cmd_commutator_factor(args, resolved):
    from . import connalg as ca

    sec = resolved["commutator"]
    rows = ["index,residual,skewness_A,skewness_G"]
    if "input" in sec:
        cases = [textio.load_endo(_read(sec["input"]))]
    else:  # the table requires r when input is unset
        check_entries(f"count = {sec['count']} random matrices of size r = {sec['r']}",
                      sec["count"] * sec["r"] ** 2)
        rng = np.random.default_rng(args.seed)
        cases = []
        for _ in range(sec["count"]):
            S = _random_skew_hermitian(rng, sec["r"])
            cases.append(S - np.trace(S) / sec["r"] * np.eye(sec["r"]))
    worst = 0.0
    for i, u in enumerate(cases):
        A, G = ca.commutator_factor(u, tol=max(args.tol, 1e-12))
        resid = float(np.abs(A @ G - G @ A - u).max())
        worst = max(worst, resid)
        rows.append(
            f"{i},{resid!r},{float(np.abs(A + A.conj().T).max())!r},"
            f"{float(np.abs(G + G.conj().T).max())!r}"
        )
    if worst > args.tol * 10:
        raise ConvergenceError(f"worst factorization residual {worst:.3e}")
    files = ()
    if len(cases) == 1:
        files = (("factor_A.endo", textio.dump_endo(A)), ("factor_G.endo", textio.dump_endo(G)))
    return Output("commutator.csv", rows, files=files,
                  message=f"factored {len(cases)} matrices, worst residual {worst:.3e}")


def _torus_config(resolved):
    from . import torus

    t = resolved["torus"]
    return torus.TorusConfig(t["n"], t["k"], t["m"], t["r"], t.get("bundle_kind", "vector"))


def _load_conn(resolved, cfg):
    from . import torus

    sec = resolved.get("connection", {})
    if "file" in sec:
        return textio.load_fourier_connection(_read(sec["file"]))
    return torus.FourierConnection.zero(r=cfg.r, n=cfg.n)


def cmd_torus_ckt(args, resolved):
    from . import torusmodel as tm

    cfg = _torus_config(resolved)
    conn = _load_conn(resolved, cfg)
    asm = tm.assemble(cfg, conn)
    rep = tm.ckt_kernel(asm)
    rows = ["kernel_index,mode_support"]
    for i, sup in enumerate(rep.mode_support):
        sup_str = ";".join("/".join(map(str, k)) for k in sup)
        rows.append(f"{i},{sup_str}")
    comments = [
        f"kernel_dim: {rep.dim}",
        f"adjointness_defect: {asm.adjointness_defect!r}",
        f"dropped_couplings: {asm.dropped_couplings}",
        rep.rank_margin(),
    ]
    return Output("ckt_kernel.csv", rows, comments,
                  message=f"kernel dimension {rep.dim} (space dim {cfg.space_dim()})")


def cmd_torus_eject(args, resolved):
    from . import torusmodel as tm

    ssec = resolved["scan"]
    check_entries(f"the scan grid of {ssec['points']} points", ssec["points"])
    cfg = _torus_config(resolved)
    conn0 = _load_conn(resolved, cfg)
    A = textio.load_fourier_connection(_read(resolved["perturbation"]["file"]))
    grid = np.linspace(-ssec["smax"], ssec["smax"], ssec["points"])
    res = tm.lambda_scan(cfg, conn0, A, grid,
                         window_radius=ssec.get("window_radius"))
    comments = [
        f"window_radius: {res.window_radius!r}",
        f"predicted_second_variation: {res.predicted_second_variation!r}",
        f"lambda_dot_fit: {res.lambda_dot_fit!r}",
        f"lambda_ddot_fit: {res.lambda_ddot_fit!r}",
        f"curvature_factor: {res.curvature_factor!r}",
        f"blocks: {res.blocks} (largest {res.largest_block[0]}x{res.largest_block[1]})",
        f"window_margin: {res.window_margin!r}",
    ]
    return Output("eject.csv", res.csv_rows(), comments, message=(
        f"lambda_ddot/(2*predicted) = {res.curvature_factor:.6f}; "
        f"kernel {res.kernel_dims.max()} -> {res.kernel_dims.min()}"))


def cmd_kato(args, resolved):
    from . import spectral as sp

    sec = resolved["kato"]
    size = sec["size"]
    # an instance's stack rows: five stencil matrices and the grid's X_s at s = -1, 1
    check_entries(f"a kato instance's stack of 7 matrices of size {size}", 7 * size ** 2)
    rng = np.random.default_rng(args.seed)
    windows = []  # (identity residual, pi operator norm) per instance

    def instance():
        X = sp.random_skew_adjoint_with_kernel(rng, size, sec["kernel_dim"], gap=0.8, spread=4.0)
        P_A = _random_skew_hermitian(rng, size)
        W = sp.spectral_window(X, sec["radius"])
        windows.append((sp.resolvent_identity_check(W), float(np.abs(sp.pi_operator(W)).max())))
        return W, P_A, 0.05 * P_A

    # drawn one at a time, so the suite keeps no instance past writing its rows,
    # and sized, so it bounds its stack by the rows the instances left need
    suites = sp.perturbation_suite(_Draws(instance, sec["instances"]), np.linspace(-1, 1, 3))
    rows = ["instance,identity_residual,d1_mismatch,d2_mismatch,conj_defect,pi_norm"]
    for i, ((resid, pi_norm), (d1c, d2c, d1f, d2f, conj)) in enumerate(zip(windows, suites)):
        rows.append(
            f"{i},{float(resid)!r},{float(abs(d1f - d1c))!r},"
            f"{float(abs(d2f - d2c))!r},{float(conj)!r},{pi_norm!r}"
        )
    worst_identity = max(resid for resid, _ in windows)
    return Output("kato.csv", rows, message=(
        f"{sec['instances']} instances, worst identity residual {worst_identity:.3e}"))


def cmd_holonomy(args, resolved):
    from . import holonomy as ho

    sec = resolved["holonomy"]
    conn = textio.load_fourier_connection(_read(sec["connection"]))
    rep = ho.opacity_probe(conn, num_geodesics=sec["num_geodesics"],
                           length=sec["length"], steps=sec["steps"], seed=args.seed)
    return Output("opacity.csv", rep.csv_rows(), [f"verdict: {rep.verdict}",
                                                  f"transport_error: {rep.transport_error!r}",
                                                  f"unitarity_defect: {rep.unitarity_defect!r}"],
                  message=rep.verdict)


def cmd_selftest(args, resolved):
    """Fast invariant sweep across the modules; exit 0 when everything holds."""
    from . import connalg as ca
    from . import holonomy as ho
    from . import polyharm as ph
    from . import spectral as sp
    from . import symbolcheck as sc
    from . import torusmodel as tm

    checks = []

    def check(name, ok):
        checks.append(bool(ok))
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    rng = np.random.default_rng(args.seed)

    for n in (2, 3, 4):
        for m in range(5):
            check(f"dims({n},{m}) = nullity",
                  ph.dims(n, m)[1] == ph.harmonic_nullity_bruteforce(n, m))

    P = ph.HPoly(3, 4, {a: rng.standard_normal() for a in ph.monomials(3, 4)})
    parts = ph.harmonic_decompose(P)
    r2 = ph.radial_squared(3)
    rec = ph.HPoly.zero(3, 4)
    for k, h in parts:
        term = h
        for _ in range(k):
            term = term * r2
        rec = rec + term
    check("harmonic decomposition reconstructs",
          ph.bombieri_norm(rec - P) <= 1e-12 * ph.bombieri_norm(P))

    u = 1j * np.diag([1.0, -1.0])
    A, G = ca.commutator_factor(u)
    check("commutator factorization", np.abs(A @ G - G @ A - u).max() <= 1e-9)

    rep = sc.check_dstar_uniform(3, 2, "tracefree", N=128, seed=args.seed)
    check("contraction symbol uniform at n=3 m=2", rep.verdict == "uniform")

    cfg = tm.TorusConfig(3, 1, 1, 1)
    a, b = tm.assemble(cfg), tm.assemble_via_D(cfg)
    check("assembly routes agree", abs((a.xplus - b.xplus)).max() <= 1e-10)
    check("assembly adjointness", a.adjointness_defect <= 1e-12)

    X = sp.random_skew_adjoint_with_kernel(rng, 12, 2)
    W = sp.spectral_window(X, 0.25)
    check("resolvent identities", sp.resolvent_identity_check(W) <= 1e-9)
    check("pi operator vanishes", np.abs(sp.pi_operator(W)).max() <= 1e-10)
    P_A = _random_skew_hermitian(rng, 12)
    Xp = X + 0.05 * P_A / np.linalg.norm(P_A, 2)
    evals = np.linalg.eigvals(Xp)
    enclosed = evals[np.abs(evals) < 0.25].sum()
    check("cluster sum matches the enclosed eigenvalue sum",
          abs(sp.cluster_sum(Xp, 0.25) + enclosed) <= 1e-10)

    conn = tm.FourierConnection.constant(
        3, [np.diag([1j, 2j]), np.zeros((2, 2)), np.zeros((2, 2))])
    seg = ho.GeodesicSegment(np.zeros(3), np.array([1.0, 0, 0]), 2.0)
    oracle = np.diag(np.exp(-2.0 * np.array([1j, 2j])))  # exp of the constant diagonal form
    res = ho.transport(conn, seg, 128)
    check("transport matches matrix exponential", np.abs(res.C - oracle).max() <= 1e-8)

    if not all(checks):
        raise ConvergenceError("selftest failed")
    return Output(None, message=f"selftest: {len(checks)} checks passed")


TORUS_TABLE = {
    "torus": {"n": Key(int, 2, required=True), "k": Key(int, 0, required=True),
              "m": Key(int, 0, required=True), "r": Key(int, 1, required=True),
              "bundle_kind": Key(str, choices=("vector", "endomorphism"))},
    "connection": {"file": Key(str)},
}

SUBCOMMANDS = {
    "dims": Subcommand(
        "dimension table of homogeneous/harmonic polynomials", cmd_dims,
        {"dims": {"n": Key(int, 2, required=True), "mmax": Key(int, 0, required=True)}},
        source="flags"),
    "harmdecomp": Subcommand(
        "harmonic decomposition of an HPOLY file", cmd_harmdecomp,
        {"harmdecomp": {"input": Key(str, required=True)}}),
    "check-divtype": Subcommand("uniform-divergence-type verdict", cmd_check_divtype, {"divtype": {
        "family": Key(str, choices=("dstar", "divergence", "forms", "counterexample"),
                      required=True, needs={"dstar": ("n", "m"), "divergence": ("n",),
                                            "forms": ("n", "k"), "counterexample": ("r",)}),
        "n": Key(int, 2), "m": Key(int, 0), "k": Key(int, 0), "r": Key(int, 1),
        "model": Key(str, choices=("tracefree", "full"), default="tracefree"),
        "samples": Key(int, 1, default=256),
    }}),
    "commutator-factor": Subcommand(
        "factor skew-Hermitian trace-free matrices", cmd_commutator_factor,
        {"commutator": {"input": Key(str, needs={None: ("r",)}), "r": Key(int, 1),
                        "count": Key(int, 1, default=1)}},
        flags=(("--tol", {"type": positive_float, "default": 1e-9}),)),
    "torus-ckt": Subcommand("kernel of the raising operator on the torus", cmd_torus_ckt,
                            TORUS_TABLE),
    "torus-eject": Subcommand("eigenvalue ejection scan", cmd_torus_eject, {
        **TORUS_TABLE,
        "perturbation": {"file": Key(str, required=True)},
        "scan": {"smax": Key(float, default=0.1), "points": Key(int, 3, default=9),
                 "window_radius": Key(positive_float)},
    }),
    "kato": Subcommand("resolvent identity and perturbation suite", cmd_kato, {"kato": {
        "size": Key(int, 1, default=20), "kernel_dim": Key(int, 0, default=2),
        "instances": Key(int, 1, default=10), "radius": Key(positive_float, default=0.3),
    }}),
    "holonomy": Subcommand("parallel-transport opacity probe", cmd_holonomy, {"holonomy": {
        "connection": Key(str, required=True), "num_geodesics": Key(int, 1, default=24),
        "length": Key(positive_float, default=7.0), "steps": Key(int, 16, default=256),
    }}),
    "selftest": Subcommand("fast invariant sweep", cmd_selftest, source=None),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ckt-lab",
        description="spectral-geometry toolkit: dimension tables, divergence-type "
                    "verdicts, torus ejection experiments, resolvent identities, "
                    "holonomy probes",
    )
    parser.add_argument("--version", action="version", version=f"ckt-lab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, entry in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=entry.help)
        if entry.source == "config":
            p.add_argument("--config", help="INI config file")
        elif entry.source == "flags":
            for keys in entry.table.values():
                for key_name, key in keys.items():
                    p.add_argument(f"--{key_name}", type=key.kind)
        p.add_argument("--seed", type=nonnegative_int, default=0)
        if entry.source is not None:
            p.add_argument("--out", help="output directory")
        for flag, kwargs in entry.flags:
            p.add_argument(flag, **kwargs)
    return parser


def _resolve(args, entry):
    """The subcommand's input checked against its table."""
    if entry.source == "config":
        return textio.parse_config(_read(args.config) if args.config else "", entry.table)
    if entry.source == "flags":
        given = {section: {name: getattr(args, name) for name in keys
                           if getattr(args, name) is not None}
                 for section, keys in entry.table.items()}
        return textio.resolve_config(given, entry.table)
    return {}


def _write(args, resolved, output):
    """Write a run's CSV, its further files and last manifest.txt into --out
    (default: the working directory); a failed write removes the files of
    the run again."""
    out = args.out or "."
    manifest = "\n".join([
        f"tool = ckt-lab {__version__}",
        f"subcommand = {args.subcommand}",
        f"seed = {args.seed}",
        f"config-hash = {textio.config_hash(resolved)}",
        "",
        textio.render_config(resolved).rstrip(),
    ]) + "\n"
    written = set()  # this run's files, removed again when a write fails
    try:
        os.makedirs(out, exist_ok=True)
        for name, text in ((output.csv, None), *output.files, ("manifest.txt", manifest)):
            path = os.path.join(out, name)
            if not os.path.lexists(path):
                written.add(path)  # a new file goes even if its own write fails
            if text is None:
                textio.write_csv(path, output.rows, resolved, output.comments)
            else:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            written.add(path)
    except OSError as exc:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise ValidationError(f"cannot write to {out}: {exc}") from exc


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    entry = SUBCOMMANDS[args.subcommand]
    try:
        resolved = _resolve(args, entry)
        output = entry.func(args, resolved)
        if output.csv is not None:
            _write(args, resolved, output)
    except ValidationError as exc:
        print(f"ckt-lab: error code=2 tag=validation msg={str(exc)!r}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"ckt-lab: error code=3 tag=non-convergence msg={str(exc)!r}", file=sys.stderr)
        return 3
    print(output.message)
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
