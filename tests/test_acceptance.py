"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time

import numpy as np
import scipy.linalg

from cktlab import connalg as ca
from cktlab import holonomy as ho
from cktlab import polyharm as ph
from cktlab import spectral as sp
from cktlab import symbolcheck as sc
from cktlab import symtensor as sy
from cktlab import torusmodel as tm
from cktlab.connalg import FiberConnForm, TwistedHarmonic
from cktlab.holonomy import GeodesicSegment
from cktlab.polyharm import HPoly
from cktlab.torusmodel import FourierConnection, TorusConfig

RNG_SEED = 54721


def report(num, ok, detail):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_dimension_suite():
    t0 = time.perf_counter()
    worst = None
    for n in range(2, 5):
        for m in range(7):
            if ph.dims(n, m)[1] != ph.harmonic_nullity_bruteforce(n, m):
                worst = (n, m)
    elapsed = time.perf_counter() - t0
    ok = worst is None and elapsed < 5.0
    report(1, ok, f"dims == nullity for n<=4, m<=6 in {elapsed:.2f}s")


def test_criterion_02_harmonic_decomposition():
    rng = np.random.default_rng(RNG_SEED)
    t0 = time.perf_counter()
    worst_rec = worst_harm = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(0, 7))
        coeffs = {a: rng.standard_normal() + 1j * rng.standard_normal()
                  for a in ph.monomials(n, m)}
        P = HPoly(n, m, coeffs)
        parts = ph.harmonic_decompose(P)
        r2 = ph.radial_squared(n)
        rec = HPoly.zero(n, m)
        for k, h in parts:
            worst_harm = max(worst_harm,
                             ph.bombieri_norm(ph.laplace(h)) / max(1.0, ph.bombieri_norm(h)))
            term = h
            for _ in range(k):
                term = term * r2
            rec = rec + term
        worst_rec = max(worst_rec, ph.bombieri_norm(rec - P) / ph.bombieri_norm(P))
    elapsed = time.perf_counter() - t0
    ok = worst_rec <= 1e-12 and worst_harm <= 1e-12 and elapsed < 10.0
    report(2, ok, f"500 polys: reconstruction {worst_rec:.2e}, "
                  f"harmonicity {worst_harm:.2e}, {elapsed:.2f}s")


def test_criterion_03_intertwining_identities():
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        coeffs = {t: rng.standard_normal() + 1j * rng.standard_normal()
                  for t in ph.monomials(n, m)}
        u = sy.SymTensor(n, m, coeffs)
        r2 = ph.radial_squared(n)
        lhs1 = sy.to_poly(sy.jay(u))
        rhs1 = r2 * sy.to_poly(u)
        worst = max(worst, ph.bombieri_norm(lhs1 - rhs1) / max(1.0, ph.bombieri_norm(rhs1)))
        lhs2 = sy.to_poly(sy.trace(u)) * (m * (m - 1))
        rhs2 = ph.laplace(sy.to_poly(u))
        worst = max(worst, ph.bombieri_norm(lhs2 - rhs2) / max(1.0, ph.bombieri_norm(rhs2)))
    ok = worst <= 1e-12
    report(3, ok, f"trace/metric intertwining on 200 tensors: worst {worst:.2e}")


def test_criterion_04_gamma_minus_surjectivity():
    rank_ok = True
    for n in (3, 4):
        for m in range(1, 5):
            G = FiberConnForm.single_direction(n, 0, 1j * np.eye(1), unitary=True)
            rep = ca.gamma_minus_matrix(G, n, m)
            if rep.rank != ph.dims(n, m - 1)[1]:
                rank_ok = False
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(50):
        n = 3 if rng.integers(2) else 4
        m = int(rng.integers(0, 3))
        r = int(rng.integers(1, 4))
        basis = ph.harmonic_basis(n, m)
        cols = tuple(
            basis.combine(rng.standard_normal(len(basis))
                          + 1j * rng.standard_normal(len(basis)))
            for _ in range(r)
        )
        u = TwistedHarmonic(n, m, cols)
        G, w = ca.solve_gamma_preimage(u)
        minus = ca.gamma_split(G, w)[1]
        worst = max(worst, (minus - u).norm_bombieri() / u.norm_bombieri())
    ok = rank_ok and worst <= 1e-9
    report(4, ok, f"rank(lowering) = h(n, m-1) for n in {{3,4}}, m <= 4; "
                  f"50 preimage residuals worst {worst:.2e}")


def test_criterion_05_commutator_factorization():
    rng = np.random.default_rng(RNG_SEED)
    t0 = time.perf_counter()
    worst_resid = worst_skew = 0.0
    for r in range(2, 7):
        for _ in range(100):
            M = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            u = (M - M.conj().T) / 2
            u -= np.trace(u) / r * np.eye(r)
            A, G = ca.commutator_factor(u)
            worst_resid = max(
                worst_resid,
                float(np.linalg.norm(A @ G - G @ A - u)) / (1 + float(np.linalg.norm(u))),
            )
            worst_skew = max(worst_skew, float(np.abs(A + A.conj().T).max()),
                             float(np.abs(G + G.conj().T).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_resid <= 1e-9 and worst_skew <= 1e-9 and elapsed < 5.0
    report(5, ok, f"500 factorizations: residual {worst_resid:.2e}, "
                  f"skewness {worst_skew:.2e}, {elapsed:.2f}s")


def test_criterion_06_uniform_divergence_verdicts():
    failures = []
    for n in (3, 4):
        for m in range(1, 5):
            for model in ("tracefree", "full"):
                r1 = sc.check_dstar_uniform(n, m, model, N=256, seed=RNG_SEED)
                r2 = sc.check_dstar_uniform(n, m, model, N=512, seed=RNG_SEED)
                if r1.verdict != "uniform" or r2.verdict != r1.verdict:
                    failures.append(("dstar", n, m, model, r1.verdict))
    for m in (2, 3, 4):
        r1 = sc.check_dstar_uniform(2, m, "tracefree", N=128, seed=RNG_SEED)
        r2 = sc.check_dstar_uniform(2, m, "tracefree", N=256, seed=RNG_SEED)
        if r1.verdict != "elliptic" or r2.verdict != "elliptic":
            failures.append(("dstar-n2", m, r1.verdict))
    cx1 = sc.uniform_span(sc.counterexample_family(2), N=128, seed=RNG_SEED)
    cx2 = sc.uniform_span(sc.counterexample_family(2), N=256, seed=RNG_SEED)
    if not (cx1.span_dim == 2 and cx1.fiber_dim == 4
            and cx1.verdict == "not-uniform" == cx2.verdict):
        failures.append(("counterexample", cx1.span_dim, cx1.verdict))
    for n in (3, 4):
        for k in range(1, n):
            f1 = sc.forms_contraction_span(n, k, N=256, seed=RNG_SEED)
            f2 = sc.forms_contraction_span(n, k, N=512, seed=RNG_SEED)
            if f1.verdict != "uniform" or f2.verdict != f1.verdict:
                failures.append(("forms", n, k, f1.verdict))
    ok = not failures
    report(6, ok, f"verdict table stable under doubling; failures: {failures}")


def test_criterion_07_torus_assembly():
    rng = np.random.default_rng(RNG_SEED)
    worst_adj = worst_route = 0.0
    # adjointness and route agreement across a spread of configs
    route_cases = [
        (TorusConfig(3, 1, 1, 1), None),
        (TorusConfig(2, 2, 2, 1), None),
        (TorusConfig(3, 1, 0, 2, "endomorphism"), None),
    ]
    conn = FourierConnection.cosine_mode(
        3, (0, 1, 0), 2,
        np.array([[0.7j, 0.2 + 0.1j], [-0.2 + 0.1j, -0.4j]]))
    route_cases.append((TorusConfig(3, 1, 1, 2), conn))
    route_cases.append((TorusConfig(3, 1, 1, 2, "endomorphism"), conn))
    for cfg, cn in route_cases:
        a = tm.assemble(cfg, cn)
        b = tm.assemble_via_D(cfg, cn)
        worst_adj = max(worst_adj, a.adjointness_defect)
        worst_route = max(worst_route,
                          float(abs((a.xplus - b.xplus)).max()),
                          float(abs((a.xminus - b.xminus)).max()))
    # trivial-connection kernel dimensions at mode 0
    kernel_ok = True
    for n in (2, 3):
        for K in (1, 2):
            for m in range(4):
                cfg = TorusConfig(n, K, m, 1)
                rep = tm.ckt_kernel(tm.assemble(cfg))
                if rep.dim != ph.dims(n, m)[1]:
                    kernel_ok = False
                if any(sup != [(0,) * n] for sup in rep.mode_support):
                    kernel_ok = False
    # timing at the stated config
    t0 = time.perf_counter()
    tm.assemble(TorusConfig(3, 2, 2, 2))
    tm.assemble_via_D(TorusConfig(3, 2, 2, 2))
    elapsed = time.perf_counter() - t0
    ok = worst_adj <= 1e-12 and worst_route <= 1e-10 and kernel_ok and elapsed < 30.0
    report(7, ok, f"adjointness {worst_adj:.2e}, route agreement {worst_route:.2e}, "
                  f"trivial kernels at mode 0, big assembly {elapsed:.2f}s")


def test_criterion_08_ejection_experiment():
    cfg = TorusConfig(3, 1, 0, 1)
    conn0 = FourierConnection.zero(r=1, n=3)
    A = FourierConnection.cosine_mode(3, (0, 1, 0), 0, 0.5j * np.eye(1))
    res = tm.lambda_scan(cfg, conn0, A, np.linspace(-0.1, 0.1, 9))
    a_norm_sq = sum(float(np.linalg.norm(M) ** 2)
                    for mats in A.coeffs.values() for M in mats)
    lam0_ok = res.lambdas[4] == 0.0
    dot_ok = abs(res.lambda_dot_fit) <= 1e-8 * a_norm_sq
    factor = res.curvature_factor
    factor_ok = (abs(factor - 1.0) <= 0.05) or (abs(factor - 0.5) <= 0.025)
    which = "1.0 (the proof's factor-2 display)" if abs(factor - 1.0) <= 0.05 else "0.5"
    kernel_ok = res.kernel_dims[4] == 1 and all(
        kd == 0 for i, kd in enumerate(res.kernel_dims) if i != 4)

    cfg_e = TorusConfig(3, 1, 0, 2, "endomorphism")
    A_e = FourierConnection.cosine_mode(
        3, (0, 1, 0), 0, np.array([[0.4j, 0.1], [-0.1, -0.4j]]))
    res_e = tm.lambda_scan(cfg_e, FourierConnection.zero(r=2, n=3), A_e,
                           np.linspace(-0.08, 0.08, 5), kernel_tol=1e-12)
    pinned_ok = bool((res_e.kernel_dims >= 1).all())

    ok = lam0_ok and dot_ok and factor_ok and kernel_ok and pinned_ok
    report(8, ok, f"lambda(0)=0, |dot|={abs(res.lambda_dot_fit):.1e}, "
                  f"curvature factor resolves to {which} (value {factor:.4f}), "
                  f"kernel 1->0, endomorphism identity pinned at 0 (1e-12)")


def test_criterion_09_kato_suite():
    rng = np.random.default_rng(RNG_SEED)
    worst_identity = worst_d1 = worst_d2 = worst_conj = worst_pi = 0.0
    for _ in range(50):
        dim = int(rng.integers(4, 41))
        X = sp.random_skew_adjoint_with_kernel(rng, dim, int(rng.integers(1, 3)),
                                               gap=0.8, spread=4.0)
        M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        P_A = (M - M.conj().T) / 2
        W = sp.spectral_window(X, 0.4)
        worst_identity = max(worst_identity, sp.resolvent_identity_check(W))
        worst_pi = max(worst_pi, float(np.abs(sp.pi_operator(W)).max()))
        d1c, d2c, d1f, d2f = sp.lambda_derivatives(sp.spectral_window(X, 0.4), P_A)
        worst_d1 = max(worst_d1, abs(d1f - d1c) / (1 + abs(d1c)))
        worst_d2 = max(worst_d2, abs(d2f - d2c) / (1 + abs(d2c)))
    X = sp.random_skew_adjoint_with_kernel(rng, 16, 2)
    M = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    P_A = (M - M.conj().T) / 2
    P_A = 0.1 * P_A / np.linalg.norm(P_A, 2)
    worst_conj = sp.conjugation_check(X, P_A, np.linspace(-0.5, 0.5, 5), radius=0.25)
    ok = (worst_identity <= 1e-9 and worst_d1 <= 1e-6 and worst_d2 <= 1e-6
          and worst_conj <= 1e-9 and worst_pi <= 1e-10)
    report(9, ok, f"identities {worst_identity:.2e}, d1 {worst_d1:.2e}, "
                  f"d2 {worst_d2:.2e}, conj {worst_conj:.2e}, pi {worst_pi:.2e}")


def test_criterion_10_holonomy_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    # transport vs matrix exponential
    Amat = np.array([[0.7j, 0.2 + 0.1j], [-0.2 + 0.1j, -0.4j]])
    conn_c = FourierConnection.constant(3, [Amat, np.zeros((2, 2)), np.zeros((2, 2))])
    worst_exp = 0.0
    for _ in range(5):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        T = rng.uniform(1.0, 6.0)
        seg = GeodesicSegment(rng.uniform(0, 2 * np.pi, 3), v, T)
        res = ho.transport(conn_c, seg, 256)
        oracle = scipy.linalg.expm(-T * v[0] * Amat)
        worst_exp = max(worst_exp, float(np.abs(res.C - oracle).max()))
    # opacity classification
    diag_conn = FourierConnection.constant(
        3, [np.diag([1j, 2j]), np.zeros((2, 2)), np.zeros((2, 2))])
    rep_diag = ho.opacity_probe(diag_conn, num_geodesics=16, length=6.0,
                                steps=192, seed=RNG_SEED)
    diag_ok = (rep_diag.commutant_dim == 2 and len(rep_diag.projectors) == 2
               and all(d <= 1e-6 for _, d, _ in rep_diag.projectors))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy_ = np.array([[0, -1j], [1j, 0]], dtype=complex)
    nc_conn = FourierConnection.constant(3, [1j * sx, 1j * sy_, np.zeros((2, 2))])
    rep_nc = ho.opacity_probe(nc_conn, num_geodesics=16, length=6.0,
                              steps=192, seed=RNG_SEED)
    nc_ok = rep_nc.commutant_dim == 1 and rep_nc.verdict.startswith("opaque")
    # complement invariance
    P = np.diag([1.0, 0.0]).astype(complex)
    d1 = ho.invariance_defect(diag_conn, P)
    d2 = ho.invariance_defect(diag_conn, np.eye(2) - P)
    comp_ok = d2 <= d1 + 1e-12
    # constant eigenvalues of parallel Hermitian sections along a geodesic
    u0 = np.diag([0.7, -0.3]).astype(complex)
    seg = GeodesicSegment(np.zeros(3), np.array([1.0, 0, 0]) / 1.0, 5.0)
    C = ho.transport(diag_conn, seg, 256).C
    spread = float(np.abs(np.linalg.eigvalsh(u0)
                          - np.linalg.eigvalsh(C @ u0 @ C.conj().T)).max())
    eig_ok = spread <= 1e-8
    elapsed = time.perf_counter() - t0
    ok = (worst_exp <= 1e-8 and diag_ok and nc_ok and comp_ok and eig_ok
          and elapsed < 60.0)
    report(10, ok, f"transport vs expm {worst_exp:.2e}, diag not opaque "
                   f"(2 projectors), noncommuting opaque (dim 1), complement + "
                   f"eigenvalue properties, {elapsed:.1f}s")


def test_criterion_11_pairing_witness():
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(0, 3))
        r = int(rng.integers(2, 4))
        basis = ca.skew_hermitian_basis(r)
        hb = ph.harmonic_basis(3, m)
        comps = [hb.combine(rng.standard_normal(len(hb))) for _ in basis]
        cols = []
        for i in range(r):
            for j in range(r):
                acc = HPoly.zero(3, m)
                for p, s in zip(comps, basis):
                    acc = acc + p * s[i, j]
                cols.append(acc)
        u = TwistedHarmonic(3, m, tuple(cols))
        A, w, pairing = ca.endo_pairing_witness(u, r)
        expected = max(abs(ph.bombieri_inner(p, p)) for p in comps)
        worst = max(worst, abs(pairing - expected) / expected)
    witness_ok = worst <= 1e-8

    # fiber symbol pairing against the independent sub-sphere norm
    from test_symbolcheck import subsphere_component

    r = 2
    A1mat = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    A1mat = (A1mat - A1mat.conj().T) / 2
    A1 = FiberConnForm.single_direction(3, 0, A1mat, unitary=True)
    basis = ca.skew_hermitian_basis(r)
    hb = ph.harmonic_basis(3, 1)
    comps = [hb.combine(rng.standard_normal(len(hb))) for _ in basis]
    cols = []
    for i in range(r):
        for j in range(r):
            acc = HPoly.zero(3, 1)
            for p, s in zip(comps, basis):
                acc = acc + p * s[i, j]
            cols.append(acc)
    u = TwistedHarmonic(3, 1, tuple(cols))
    xi0 = np.array([0.0, 0.0, 1.5])
    Am0, norm_sq = subsphere_component(A1, u, xi0, m0=2)
    val = sc.fiber_symbol_pairing(A1, u, Am0, xi0, nq=10_000)
    expected = 2 * math.pi / float(np.linalg.norm(xi0)) * norm_sq
    fiber_err = abs(val.real - expected) / expected
    fiber_ok = fiber_err <= 1e-6 and norm_sq > 1e-8

    ok = witness_ok and fiber_ok
    report(11, ok, f"50 witnesses worst {worst:.2e}; fiber pairing vs "
                   f"sub-sphere norm {fiber_err:.2e} at Nq=10^4")
