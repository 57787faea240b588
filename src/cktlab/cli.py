"""Batch experiment runner: every module behind a subcommand.

Subcommands: dims, harmdecomp, check-divtype, commutator-factor,
torus-ckt, torus-eject, kato, holonomy, selftest.  Runs read an
INI-style config checked against one table of textio.Key entries per
subcommand (parse_config owns every single-key rule; a subcommand checks
only what couples keys), write CSV outputs plus a manifest echoing the
resolved config, and are deterministic given (config, seed).  Exit codes:
0 success, 2 validation error, 3 numerical non-convergence; stderr
carries a one-line machine-parsable tag.

Importing this module loads no scipy: only the subcommands that assemble
torus matrices (torus-ckt, torus-eject, selftest) import torusmodel, and
with it scipy.sparse; the rest read the torus truncation and connections
from the numpy-only torus module.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from . import connalg as ca
from . import holonomy as ho
from . import polyharm as ph
from . import spectral as sp
from . import symbolcheck as sc
from . import textio
from . import torus
from .errors import ConvergenceError, ValidationError
from .textio import Key, positive_float

__all__ = ["main", "run"]


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _outdir(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _manifest(args, resolved, extra=()):
    out = _outdir(args)
    lines = [
        f"tool = ckt-lab {__version__}",
        f"subcommand = {args.subcommand}",
        f"seed = {args.seed}",
        f"config-hash = {textio.config_hash(resolved)}",
        "",
        textio.render_config(resolved).rstrip(),
    ]
    lines.extend(extra)
    with open(os.path.join(out, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_config(args, schema):
    return textio.parse_config(_read(args.config) if args.config else "", schema)


# ---------------------------------------------------------------------------
# subcommands


def cmd_dims(args):
    if args.n is None or args.mmax is None:
        raise ValidationError("dims needs --n and --mmax")
    if args.mmax < 0:
        raise ValidationError(f"--mmax must be >= 0, got {args.mmax}")
    rows = ["m,p,h"]
    print(f"{'m':>3} {'p':>8} {'h':>8}")
    for m in range(args.mmax + 1):
        p, h = ph.dims(args.n, m)
        rows.append(f"{m},{p},{h}")
        print(f"{m:>3} {p:>8} {h:>8}")
    if args.out:
        resolved = {"dims": {"n": args.n, "mmax": args.mmax}}
        textio.write_csv(os.path.join(_outdir(args), "dims.csv"), rows, resolved)
        _manifest(args, resolved)
    return 0


HARMDECOMP_SCHEMA = {"harmdecomp": {"input": Key(str, required=True)}}


def cmd_harmdecomp(args):
    resolved = _load_config(args, HARMDECOMP_SCHEMA)
    P = textio.load_hpoly(_read(resolved["harmdecomp"]["input"]))
    parts = ph.harmonic_decompose(P)
    out = _outdir(args)
    rows = ["k,harmonic_degree,bombieri_norm,laplace_residual"]
    for k, h in parts:
        rows.append(f"{k},{h.m},{ph.bombieri_norm(h)!r},{ph.bombieri_norm(ph.laplace(h))!r}")
        with open(os.path.join(out, f"part_k{k}.hpoly"), "w", encoding="utf-8") as fh:
            fh.write(textio.dump_hpoly(h))
    textio.write_csv(os.path.join(out, "harmdecomp.csv"), rows, resolved)
    _manifest(args, resolved)
    print(f"decomposed into {len(parts)} harmonic parts -> {out}")
    return 0


# the keys each family reads, checked by the subcommand because the rule spans two keys
DIVTYPE_FAMILY_KEYS = {"dstar": ("n", "m"), "divergence": ("n",), "forms": ("n", "k"),
                       "counterexample": ("r",)}
DIVTYPE_SCHEMA = {"divtype": {
    "family": Key(str, choices=tuple(DIVTYPE_FAMILY_KEYS), required=True),
    "n": Key(int, 2), "m": Key(int, 0), "k": Key(int, 0), "r": Key(int, 1),
    "model": Key(str, choices=("tracefree", "full"), default="tracefree"),
    "samples": Key(int, 1, default=256),
}}


def cmd_check_divtype(args):
    resolved = _load_config(args, DIVTYPE_SCHEMA)
    sec = resolved["divtype"]
    family = sec["family"]
    N = sec["samples"]
    seed = args.seed
    missing = [k for k in DIVTYPE_FAMILY_KEYS[family] if k not in sec]
    if missing:
        raise ValidationError(f"[divtype] family {family!r} needs keys {missing}")
    if family == "dstar":
        rep = sc.check_dstar_uniform(sec["n"], sec["m"], sec["model"], N=N, seed=seed)
    elif family == "divergence":
        rep = sc.uniform_span(sc.divergence_family(sec["n"]), N=N, seed=seed)
    elif family == "forms":
        rep = sc.forms_contraction_span(sec["n"], sec["k"], N=N, seed=seed)
    else:  # counterexample
        rep = sc.uniform_span(sc.counterexample_family(sec["r"]), N=N, seed=seed)
    comments = [f"family: {rep.name}", f"verdict: {rep.verdict}"]
    if rep.note:
        comments.append(f"note: {rep.note}")
    textio.write_csv(os.path.join(_outdir(args), "divtype.csv"), rep.csv_rows(),
                     resolved, comments)
    _manifest(args, resolved)
    print(f"{rep.name}: span {rep.span_dim}/{rep.fiber_dim} -> {rep.verdict}")
    return 0


COMMUTATOR_SCHEMA = {"commutator": {"input": Key(str), "r": Key(int, 1),
                                    "count": Key(int, 1, default=1)}}


def cmd_commutator_factor(args):
    resolved = _load_config(args, COMMUTATOR_SCHEMA)
    sec = resolved["commutator"]
    rows = ["index,residual,skewness_A,skewness_G"]
    if "input" in sec:
        u = textio.load_endo(_read(sec["input"]))
        cases = [u]
    elif "r" in sec:
        rng = np.random.default_rng(args.seed)
        cases = []
        for _ in range(sec["count"]):
            M = rng.standard_normal((sec["r"], sec["r"])) + 1j * rng.standard_normal(
                (sec["r"], sec["r"]))
            S = (M - M.conj().T) / 2
            cases.append(S - np.trace(S) / sec["r"] * np.eye(sec["r"]))
    else:
        raise ValidationError("commutator-factor needs input = FILE or r = RANK")
    worst = 0.0
    for i, u in enumerate(cases):
        A, G = ca.commutator_factor(u, tol=max(args.tol, 1e-12))
        resid = float(np.abs(A @ G - G @ A - u).max())
        worst = max(worst, resid)
        rows.append(
            f"{i},{resid!r},{float(np.abs(A + A.conj().T).max())!r},"
            f"{float(np.abs(G + G.conj().T).max())!r}"
        )
    # the gate comes before any output, so a failed run leaves no files
    if worst > args.tol * 10:
        raise ConvergenceError(f"worst factorization residual {worst:.3e}")
    out = _outdir(args)
    if len(cases) == 1:
        for name, M in (("factor_A.endo", A), ("factor_G.endo", G)):
            with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
                fh.write(textio.dump_endo(M))
    textio.write_csv(os.path.join(out, "commutator.csv"), rows, resolved)
    _manifest(args, resolved)
    print(f"factored {len(cases)} matrices, worst residual {worst:.3e}")
    return 0


TORUS_SCHEMA_COMMON = {
    "torus": {"n": Key(int, 2, required=True), "k": Key(int, 0, required=True),
              "m": Key(int, 0, required=True), "r": Key(int, 1, required=True),
              "bundle_kind": Key(str, choices=("vector", "endomorphism"))},
    "connection": {"file": Key(str)},
}


def _torus_config(resolved):
    t = resolved["torus"]
    return torus.TorusConfig(t["n"], t["k"], t["m"], t["r"], t.get("bundle_kind", "vector"))


def _load_conn(resolved, cfg):
    sec = resolved.get("connection", {})
    if "file" in sec:
        return textio.load_fourier_connection(_read(sec["file"]))
    return torus.FourierConnection.zero(r=cfg.r, n=cfg.n)


def cmd_torus_ckt(args):
    from . import torusmodel as tm

    resolved = _load_config(args, TORUS_SCHEMA_COMMON)
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
    ]
    textio.write_csv(os.path.join(_outdir(args), "ckt_kernel.csv"), rows,
                     resolved, comments)
    _manifest(args, resolved)
    print(f"kernel dimension {rep.dim} (space dim {cfg.space_dim()})")
    return 0


EJECT_SCHEMA = {
    **TORUS_SCHEMA_COMMON,
    "perturbation": {"file": Key(str, required=True)},
    "scan": {"smax": Key(float, default=0.1), "points": Key(int, 3, default=9),
             "window_radius": Key(positive_float)},
}


def cmd_torus_eject(args):
    from . import torusmodel as tm

    resolved = _load_config(args, EJECT_SCHEMA)
    cfg = _torus_config(resolved)
    conn0 = _load_conn(resolved, cfg)
    A = textio.load_fourier_connection(_read(resolved["perturbation"]["file"]))
    ssec = resolved["scan"]
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
    textio.write_csv(os.path.join(_outdir(args), "eject.csv"), res.csv_rows(),
                     resolved, comments)
    _manifest(args, resolved)
    print(
        f"lambda_ddot/(2*predicted) = {res.curvature_factor:.6f}; "
        f"kernel {res.kernel_dims.max()} -> {res.kernel_dims.min()}"
    )
    return 0


KATO_SCHEMA = {"kato": {
    "size": Key(int, 1, default=20), "kernel_dim": Key(int, 0, default=2),
    "instances": Key(int, 1, default=10), "radius": Key(positive_float, default=0.3),
}}


def cmd_kato(args):
    resolved = _load_config(args, KATO_SCHEMA)
    sec = resolved["kato"]
    rng = np.random.default_rng(args.seed)
    rows = ["instance,identity_residual,d1_mismatch,d2_mismatch,conj_defect,pi_norm"]
    worst_identity = 0.0
    for i in range(sec["instances"]):
        X = sp.random_skew_adjoint_with_kernel(rng, sec["size"], sec["kernel_dim"],
                                               gap=0.8, spread=4.0)
        M = rng.standard_normal((sec["size"], sec["size"])) + 1j * rng.standard_normal(
            (sec["size"], sec["size"]))
        P_A = (M - M.conj().T) / 2
        W = sp.spectral_window(X, sec["radius"])
        resid = sp.resolvent_identity_check(W)
        worst_identity = max(worst_identity, resid)
        d1c, d2c, d1f, d2f, conj = sp.perturbation_suite(W, P_A, 0.05 * P_A,
                                                         np.linspace(-1, 1, 3))
        pi_norm = float(np.abs(sp.pi_operator(W)).max())
        rows.append(
            f"{i},{float(resid)!r},{float(abs(d1f - d1c))!r},"
            f"{float(abs(d2f - d2c))!r},{float(conj)!r},{pi_norm!r}"
        )
    textio.write_csv(os.path.join(_outdir(args), "kato.csv"), rows, resolved)
    _manifest(args, resolved)
    print(f"{sec['instances']} instances, worst identity residual {worst_identity:.3e}")
    return 0


HOLONOMY_SCHEMA = {"holonomy": {
    "connection": Key(str, required=True), "num_geodesics": Key(int, 1, default=24),
    "length": Key(positive_float, default=7.0), "steps": Key(int, 16, default=256),
}}


def cmd_holonomy(args):
    resolved = _load_config(args, HOLONOMY_SCHEMA)
    sec = resolved["holonomy"]
    conn = textio.load_fourier_connection(_read(sec["connection"]))
    rep = ho.opacity_probe(conn, num_geodesics=sec["num_geodesics"],
                           length=sec["length"], steps=sec["steps"], seed=args.seed)
    textio.write_csv(os.path.join(_outdir(args), "opacity.csv"), rep.csv_rows(),
                     resolved, [f"verdict: {rep.verdict}",
                                f"transport_error: {rep.transport_error!r}",
                                f"unitarity_defect: {rep.unitarity_defect!r}"])
    _manifest(args, resolved)
    print(rep.verdict)
    return 0


def _selftest_impl(args):
    """Fast invariant sweep across the modules; exit 0 when everything holds."""
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

    from .polyharm import HPoly

    P = HPoly(3, 4, {a: rng.standard_normal() for a in ph.monomials(3, 4)})
    parts = ph.harmonic_decompose(P)
    r2 = ph.radial_squared(3)
    rec = HPoly.zero(3, 4)
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
    M = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    P_A = (M - M.conj().T) / 2
    Xp = X + 0.05 * P_A / np.linalg.norm(P_A, 2)
    evals = np.linalg.eigvals(Xp)
    enclosed = evals[np.abs(evals) < 0.25].sum()
    check("cluster sum matches the enclosed eigenvalue sum",
          abs(sp.cluster_sum(Xp, 0.25) + enclosed) <= 1e-10)

    conn = tm.FourierConnection.constant(
        3, [np.diag([1j, 2j]), np.zeros((2, 2)), np.zeros((2, 2))])
    seg = ho.GeodesicSegment(np.zeros(3), np.array([1.0, 0, 0]), 2.0)
    import scipy.linalg
    oracle = scipy.linalg.expm(-2.0 * np.diag([1j, 2j]))
    res = ho.transport(conn, seg, 128)
    check("transport matches matrix exponential", np.abs(res.C - oracle).max() <= 1e-8)

    if not all(checks):
        raise ConvergenceError("selftest failed")
    print(f"selftest: {len(checks)} checks passed")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ckt-lab",
        description="spectral-geometry toolkit: dimension tables, divergence-type "
                    "verdicts, torus ejection experiments, resolvent identities, "
                    "holonomy probes",
    )
    parser.add_argument("--version", action="version", version=f"ckt-lab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="INI config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("dims", help="dimension table of homogeneous/harmonic polynomials")
    p.add_argument("--n", type=int)
    p.add_argument("--mmax", type=int)
    common(p, config=False)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("harmdecomp", help="harmonic decomposition of an HPOLY file")
    common(p)
    p.set_defaults(func=cmd_harmdecomp)

    p = sub.add_parser("check-divtype", help="uniform-divergence-type verdict")
    common(p)
    p.set_defaults(func=cmd_check_divtype)

    p = sub.add_parser("commutator-factor", help="factor skew-Hermitian trace-free matrices")
    common(p)
    p.add_argument("--tol", type=positive_float, default=1e-9)
    p.set_defaults(func=cmd_commutator_factor)

    p = sub.add_parser("torus-ckt", help="kernel of the raising operator on the torus")
    common(p)
    p.set_defaults(func=cmd_torus_ckt)

    p = sub.add_parser("torus-eject", help="eigenvalue ejection scan")
    common(p)
    p.set_defaults(func=cmd_torus_eject)

    p = sub.add_parser("kato", help="resolvent identity and perturbation suite")
    common(p)
    p.set_defaults(func=cmd_kato)

    p = sub.add_parser("holonomy", help="parallel-transport opacity probe")
    common(p)
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("selftest", help="fast invariant sweep")
    p.add_argument("--seed", type=int, default=0)  # reads no config, writes no file
    p.set_defaults(func=_selftest_impl)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"ckt-lab: error code=2 tag=validation msg={str(exc)!r}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"ckt-lab: error code=3 tag=non-convergence msg={str(exc)!r}", file=sys.stderr)
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
