"""Batch experiment runner: every module behind a subcommand.

Subcommands: dims, harmdecomp, check-divtype, commutator-factor,
torus-ckt, torus-eject, kato, holonomy, selftest.  Runs read an
INI-style config (unknown keys are errors), write CSV outputs plus a
manifest echoing the resolved config, and are deterministic given
(config, seed).  Exit codes: 0 success, 2 validation error, 3 numerical
non-convergence; stderr carries a one-line machine-parsable tag.
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
from . import torusmodel as tm
from . import textio
from .errors import ConvergenceError, ValidationError

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


def _load_config(args, schema, defaults=None):
    resolved = {k: dict(v) for k, v in (defaults or {}).items()}
    if args.config:
        parsed = textio.parse_config(_read(args.config), schema)
        for sec, kv in parsed.items():
            resolved.setdefault(sec, {}).update(kv)
    return resolved


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


HARMDECOMP_SCHEMA = {"harmdecomp": {"input": str}}


def cmd_harmdecomp(args):
    resolved = _load_config(args, HARMDECOMP_SCHEMA)
    if "harmdecomp" not in resolved or "input" not in resolved["harmdecomp"]:
        raise ValidationError("harmdecomp needs [harmdecomp] input = FILE")
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


DIVTYPE_SCHEMA = {
    "divtype": {
        "family": str, "n": int, "m": int, "k": int, "r": int,
        "model": str, "samples": int,
    }
}
DIVTYPE_DEFAULTS = {"divtype": {"model": "tracefree", "samples": 256}}


def cmd_check_divtype(args):
    resolved = _load_config(args, DIVTYPE_SCHEMA, DIVTYPE_DEFAULTS)
    sec = resolved.get("divtype", {})
    family = sec.get("family")
    if family is None:
        raise ValidationError("check-divtype needs [divtype] family = ...")
    N = sec["samples"]
    seed = args.seed

    def need(*keys):
        missing = [k for k in keys if k not in sec]
        if missing:
            raise ValidationError(f"[divtype] family {family!r} needs keys {missing}")

    if family == "dstar":
        need("n", "m")
        rep = sc.check_dstar_uniform(sec["n"], sec["m"], sec["model"], N=N, seed=seed)
    elif family == "divergence":
        need("n")
        rep = sc.uniform_span(sc.divergence_family(sec["n"]), N=N, seed=seed)
    elif family == "forms":
        need("n", "k")
        rep = sc.forms_contraction_span(sec["n"], sec["k"], N=N, seed=seed)
    elif family == "counterexample":
        need("r")
        rep = sc.uniform_span(sc.counterexample_family(sec["r"]), N=N, seed=seed)
    else:
        raise ValidationError(f"unknown family {family!r}")
    comments = [f"family: {rep.name}", f"verdict: {rep.verdict}"]
    if rep.note:
        comments.append(f"note: {rep.note}")
    textio.write_csv(os.path.join(_outdir(args), "divtype.csv"), rep.csv_rows(),
                     resolved, comments)
    _manifest(args, resolved)
    print(f"{rep.name}: span {rep.span_dim}/{rep.fiber_dim} -> {rep.verdict}")
    return 0


COMMUTATOR_SCHEMA = {"commutator": {"input": str, "r": int, "count": int}}
COMMUTATOR_DEFAULTS = {"commutator": {"count": 1}}


def cmd_commutator_factor(args):
    resolved = _load_config(args, COMMUTATOR_SCHEMA, COMMUTATOR_DEFAULTS)
    sec = resolved.get("commutator", {})
    tol = args.tol if args.tol is not None else 1e-9
    out = _outdir(args)
    rows = ["index,residual,skewness_A,skewness_G"]
    if "input" in sec:
        u = textio.load_endo(_read(sec["input"]))
        cases = [u]
    elif "r" in sec:
        if sec["r"] < 1 or sec["count"] < 1:
            raise ValidationError(f"[commutator] needs r >= 1 and count >= 1, got "
                                  f"r={sec['r']} count={sec['count']}")
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
        A, G = ca.commutator_factor(u, tol=max(tol, 1e-12))
        resid = float(np.abs(A @ G - G @ A - u).max())
        worst = max(worst, resid)
        rows.append(
            f"{i},{resid!r},{float(np.abs(A + A.conj().T).max())!r},"
            f"{float(np.abs(G + G.conj().T).max())!r}"
        )
        if len(cases) == 1:
            with open(os.path.join(out, "factor_A.endo"), "w", encoding="utf-8") as fh:
                fh.write(textio.dump_endo(A))
            with open(os.path.join(out, "factor_G.endo"), "w", encoding="utf-8") as fh:
                fh.write(textio.dump_endo(G))
    textio.write_csv(os.path.join(out, "commutator.csv"), rows, resolved)
    _manifest(args, resolved)
    if worst > tol * 10:
        raise ConvergenceError(f"worst factorization residual {worst:.3e}")
    print(f"factored {len(cases)} matrices, worst residual {worst:.3e}")
    return 0


TORUS_SCHEMA_COMMON = {
    "torus": {"n": int, "k": int, "m": int, "r": int, "bundle_kind": str},
    "connection": {"file": str},
}


def _torus_config(resolved):
    sec = resolved.get("torus")
    if not sec:
        raise ValidationError("missing [torus] section")
    try:
        return tm.TorusConfig(sec["n"], sec["k"], sec["m"], sec["r"],
                              sec.get("bundle_kind", "vector"))
    except KeyError as exc:
        raise ValidationError(f"[torus] missing key {exc}") from exc


def _load_conn(resolved, cfg):
    sec = resolved.get("connection", {})
    if "file" in sec:
        return textio.load_fourier_connection(_read(sec["file"]))
    return tm.FourierConnection.zero(r=cfg.r, n=cfg.n)


def cmd_torus_ckt(args):
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


EJECT_SCHEMA = dict(TORUS_SCHEMA_COMMON)
EJECT_SCHEMA.update({
    "perturbation": {"file": str},
    "scan": {"smax": float, "points": int, "window_radius": float},
})
EJECT_DEFAULTS = {"scan": {"smax": 0.1, "points": 9}}


def cmd_torus_eject(args):
    resolved = _load_config(args, EJECT_SCHEMA, EJECT_DEFAULTS)
    cfg = _torus_config(resolved)
    conn0 = _load_conn(resolved, cfg)
    psec = resolved.get("perturbation", {})
    if "file" not in psec:
        raise ValidationError("torus-eject needs [perturbation] file = FOURCONN")
    A = textio.load_fourier_connection(_read(psec["file"]))
    ssec = resolved["scan"]
    if ssec["points"] < 3:
        raise ValidationError(f"[scan] points must be >= 3, got {ssec['points']}")
    grid = np.linspace(-ssec["smax"], ssec["smax"], ssec["points"])
    res = tm.lambda_scan(cfg, conn0, A, grid,
                         window_radius=ssec.get("window_radius"))
    comments = [
        f"window_radius: {res.window_radius!r}",
        f"predicted_second_variation: {res.predicted_second_variation!r}",
        f"lambda_dot_fit: {res.lambda_dot_fit!r}",
        f"lambda_ddot_fit: {res.lambda_ddot_fit!r}",
        f"curvature_factor: {res.curvature_factor!r}",
    ]
    textio.write_csv(os.path.join(_outdir(args), "eject.csv"), res.csv_rows(),
                     resolved, comments)
    _manifest(args, resolved)
    print(
        f"lambda_ddot/(2*predicted) = {res.curvature_factor:.6f}; "
        f"kernel {res.kernel_dims.max()} -> {res.kernel_dims.min()}"
    )
    return 0


KATO_SCHEMA = {"kato": {"size": int, "kernel_dim": int, "instances": int,
                        "radius": float}}
KATO_DEFAULTS = {"kato": {"size": 20, "kernel_dim": 2, "instances": 10,
                          "radius": 0.3}}


def cmd_kato(args):
    resolved = _load_config(args, KATO_SCHEMA, KATO_DEFAULTS)
    sec = resolved["kato"]
    if sec["instances"] < 1:
        raise ValidationError(f"[kato] instances must be >= 1, got {sec['instances']}")
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
        d1c, d2c, d1f, d2f = sp.lambda_derivatives(X, P_A, sec["radius"])
        conj = sp.conjugation_check(X, 0.05 * P_A, np.linspace(-1, 1, 3),
                                    radius=sec["radius"])
        pi_norm = float(np.abs(sp.pi_operator(W)).max())
        rows.append(
            f"{i},{float(resid)!r},{float(abs(d1f - d1c))!r},"
            f"{float(abs(d2f - d2c))!r},{float(conj)!r},{pi_norm!r}"
        )
    textio.write_csv(os.path.join(_outdir(args), "kato.csv"), rows, resolved)
    _manifest(args, resolved)
    print(f"{sec['instances']} instances, worst identity residual {worst_identity:.3e}")
    return 0


HOLONOMY_SCHEMA = {
    "holonomy": {"connection": str, "num_geodesics": int, "length": float,
                 "steps": int},
}
HOLONOMY_DEFAULTS = {"holonomy": {"num_geodesics": 24, "length": 7.0, "steps": 256}}


def cmd_holonomy(args):
    resolved = _load_config(args, HOLONOMY_SCHEMA, HOLONOMY_DEFAULTS)
    sec = resolved["holonomy"]
    if "connection" not in sec:
        raise ValidationError("holonomy needs [holonomy] connection = FOURCONN file")
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
    p.add_argument("--tol", type=float, default=None)
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
    common(p)
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
