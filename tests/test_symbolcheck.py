import math

import numpy as np
import pytest

from cktlab import connalg as ca
from cktlab import polyharm as ph
from cktlab import symbolcheck as sc
from cktlab import symtensor as sy
from cktlab.connalg import TwistedHarmonic
from cktlab.errors import ValidationError
from cktlab.polyharm import HPoly
from cktlab.torus import FourierConnection

from conftest import random_skew_hermitian


def random_rotation(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


class TestSymbolDstar:
    def test_n3_m1_row(self):
        M = sc.symbol_dstar(3, 1, np.array([1.0, 0, 0]))
        assert M.shape == (1, 3)
        # proportional to contraction with e_1: exactly one basis direction
        # survives, the others are annihilated
        mags = np.abs(M[0])
        assert (mags > 1e-12).sum() == 1

    def test_n2_m2_invertible(self):
        M = sc.symbol_dstar(2, 2, np.array([1.0, 0]))
        assert M.shape == (2, 2)
        s = np.linalg.svd(M, compute_uv=False)
        assert s[-1] > 1e-10

    def test_m0_zero_map(self):
        M = sc.symbol_dstar(3, 0, np.array([1.0, 0, 0]))
        assert M.shape == (0, 1)

    @pytest.mark.parametrize("m", [0, 2])
    def test_unknown_model_rejected(self, m):
        # an unknown model used to give a zero matrix at m = 0 and the full
        # model's dimensions in the family
        with pytest.raises(ValidationError, match="unknown model"):
            sc.symbol_dstar(3, m, np.array([1.0, 0, 0]), "bogus")
        with pytest.raises(ValidationError, match="unknown model"):
            sc.dstar_family(3, m, "bogus")
        with pytest.raises(ValidationError, match="unknown model"):
            sc.check_dstar_uniform(3, m, "bogus", N=4)

    @pytest.mark.parametrize("model", ["tracefree", "full"])
    def test_rotation_equivariance(self, model, rng):
        # sigma(R xi) rho_m(R) = rho_{m-1}(R) sigma(xi) for the pullback
        # rotation action on the tensor models
        n, m = 3, 2
        if model == "tracefree":
            dom = sy.tracefree_basis(n, m)
            cod = sy.tracefree_basis(n, m - 1)
        else:
            dom = [sy.SymTensor.basis_element(n, t) for t in ph.monomials(n, m)]
            dom = [t * (1 / t.norm()) for t in dom]
            cod = [sy.SymTensor.basis_element(n, t) for t in ph.monomials(n, m - 1)]
            cod = [t * (1 / t.norm()) for t in cod]

        def rho(R, basis):
            out = np.empty((len(basis), len(basis)), dtype=complex)
            for a, t in enumerate(basis):
                rt = sy.from_poly(sy.to_poly(t).compose_linear(R.T))
                for b, w in enumerate(basis):
                    out[b, a] = rt.inner(w)
            return out

        for _ in range(50):
            R = random_rotation(rng, n)
            xi = rng.standard_normal(n)
            xi /= np.linalg.norm(xi)
            lhs = sc.symbol_dstar(n, m, R @ xi, model) @ rho(R, dom)
            rhs = rho(R, cod) @ sc.symbol_dstar(n, m, xi, model)
            assert np.abs(lhs - rhs).max() < 1e-10


class TestUniformSpan:
    def test_divergence_uniform(self):
        rep = sc.uniform_span(sc.divergence_family(3), N=128, seed=1)
        assert rep.verdict == "uniform"
        assert rep.span_dim == 3

    def test_dstar_n3_m2_tracefree(self):
        rep = sc.check_dstar_uniform(3, 2, "tracefree", N=256, seed=1)
        assert rep.verdict == "uniform"
        assert rep.span_dim == 5 and rep.fiber_dim == 5

    def test_dstar_n2_m2_elliptic(self):
        rep = sc.check_dstar_uniform(2, 2, "tracefree", N=128, seed=1)
        assert rep.verdict == "elliptic"
        assert all(kd == 0 for kd in rep.kernel_dims)

    def test_counterexample(self):
        rep = sc.uniform_span(sc.counterexample_family(2), N=128, seed=1)
        assert rep.verdict == "not-uniform"
        assert rep.span_dim == 2 and rep.fiber_dim == 4

    def test_n2_m1_edge_case_flagged(self):
        rep = sc.check_dstar_uniform(2, 1, "tracefree", N=128, seed=1)
        assert rep.span_dim == rep.fiber_dim == 2
        assert "edge case" in rep.note

    @pytest.mark.parametrize("n", [3, 4])
    def test_verdict_table(self, n):
        for m in range(1, 5):
            for model in ("tracefree", "full"):
                rep = sc.check_dstar_uniform(n, m, model, N=256, seed=3)
                assert rep.verdict == "uniform", (n, m, model)

    def test_n2_higher_m_elliptic(self):
        for m in (2, 3, 4):
            rep = sc.check_dstar_uniform(2, m, "tracefree", N=96, seed=3)
            assert rep.verdict == "elliptic"

    def test_monotone_and_stable_under_doubling(self):
        fam = sc.dstar_family(3, 2, "tracefree")
        rep1 = sc.uniform_span(fam, N=64, seed=5)
        rep2 = sc.uniform_span(fam, N=128, seed=5)
        spans1 = rep1.span_history
        assert spans1 == sorted(spans1)
        assert rep1.verdict == rep2.verdict

    def test_deterministic_given_seed(self):
        fam = sc.dstar_family(3, 1, "tracefree")
        a = sc.uniform_span(fam, N=64, seed=9)
        b = sc.uniform_span(fam, N=64, seed=9)
        assert a.kernel_dims == b.kernel_dims and a.span_dim == b.span_dim

    @staticmethod
    def _kernels_e1_then_tilted(eps):
        # a symbol on C^3 whose kernel is e_1 at the first sample and
        # e_1 + eps e_2 (normalized) at every later one
        calls = []

        def ev(xi):
            tilt = eps if calls else 0.0
            calls.append(xi)
            return np.array([[-tilt, 1.0, 0.0], [0.0, 0.0, 1.0]])

        return sc.SymbolFamily(3, 2, ev, 2, name=f"tilt {eps}")

    @pytest.mark.parametrize("eps, span", [(9e-9, 1), (1.1e-8, 2)])
    def test_span_grows_past_a_residual_of_1e_8(self, eps, span):
        # the span's rank cut: a kernel vector at distance rho from the span
        # is a new direction when rho > 1e-8
        rep = sc.uniform_span(self._kernels_e1_then_tilted(eps), N=20)
        assert rep.kernel_dims[:2] == [1, 1]
        assert rep.span_history[:2] == [1, span]
        assert rep.span_dim == span and rep.verdict == "not-uniform"


class TestForms:
    def test_n3_k1_uniform(self):
        rep = sc.uniform_span(sc.forms_family(3, 1), N=128, seed=1)
        assert rep.verdict == "uniform" and rep.span_dim == 3

    def test_n3_top_degree(self):
        rep = sc.uniform_span(sc.forms_family(3, 3), N=64, seed=1)
        assert rep.span_dim == 0 and rep.verdict != "uniform"

    def test_n4_k2(self):
        rep = sc.uniform_span(sc.forms_family(4, 2), N=256, seed=1)
        assert rep.verdict == "uniform" and rep.span_dim == 6

    @pytest.mark.parametrize("n", [3, 4])
    def test_uniform_between_endpoints(self, n):
        for k in range(1, n):
            rep = sc.uniform_span(sc.forms_family(n, k), N=256, seed=2)
            assert rep.verdict == "uniform", (n, k)


class TestFamilyCeiling:
    # the entries checked before a family is built are those of its largest
    # array, counted from the family the check lets through
    @pytest.mark.parametrize("family, stack", [
        (lambda: sc.dstar_family(3, 2), 3),
        (lambda: sc.dstar_family(4, 3, "full"), 4),
        (lambda: sc.dstar_family(3, 0), 3),
        (lambda: sc.forms_family(5, 2), 5),
        (lambda: sc.forms_family(4, 0), 4),
        (lambda: sc.divergence_family(4), 1),
        (lambda: sc.counterexample_family(3), 1),
    ], ids=["dstar", "dstar-full", "dstar-m0", "forms", "forms-k0", "divergence",
            "counterexample"])
    def test_counts_the_built_family(self, monkeypatch, family, stack):
        counted = []
        monkeypatch.setattr(sc, "check_entries", lambda array, entries: counted.append(entries))
        fam = family()
        assert counted == [max(fam.domain_dim, stack * fam.codomain_dim) * fam.domain_dim]


class TestSphereQuadrature:
    def test_circle_exact_for_trig(self):
        pts, w = sc.sphere_quadrature(1, 64)
        assert w.sum() == pytest.approx(2 * math.pi, rel=1e-13)
        # integral of cos^2 over the circle = pi
        assert (w @ (pts[:, 0] ** 2)) == pytest.approx(math.pi, rel=1e-12)

    def test_s2_polynomial_moments(self):
        pts, w = sc.sphere_quadrature(2, 400)
        assert w.sum() == pytest.approx(4 * math.pi, rel=1e-10)
        got = w @ (pts[:, 0] ** 2)
        assert got == pytest.approx(4 * math.pi / 3, rel=1e-10)
        got4 = w @ (pts[:, 2] ** 4)
        assert got4 == pytest.approx(ph.sphere_monomial_moment((0, 0, 4), 3), rel=1e-10)


class TestGaussJacobi:
    A_VALUES = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]

    @pytest.mark.parametrize("a", A_VALUES)
    def test_matches_scipy_roots_jacobi(self, a):
        from scipy.special import roots_jacobi

        for npoints in range(4, 31):
            t, w = sc._gauss_jacobi(npoints, a)
            t_ref, w_ref = roots_jacobi(npoints, a, a)
            assert np.abs(t - t_ref).max() <= 1e-13, npoints
            assert np.abs(w - w_ref).max() <= 1e-13 * w_ref.max(), npoints

    @pytest.mark.parametrize("a", A_VALUES)
    def test_exact_for_even_moments(self, a):
        # integral of (1 - t^2)^a t^(2j) over [-1, 1] is B(j + 1/2, a + 1)
        for npoints in range(4, 31):
            t, w = sc._gauss_jacobi(npoints, a)
            for j in range(npoints):  # degree 2j <= 2 npoints - 1
                exact = math.exp(math.lgamma(j + 0.5) + math.lgamma(a + 1)
                                 - math.lgamma(j + a + 1.5))
                assert w @ t ** (2 * j) == pytest.approx(exact, rel=1e-13), (npoints, j)


class TestCosphereSampler:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_scipy_ndtri_sampler(self, n):
        from scipy.special import ndtri

        seed = 7
        sample = sc.make_cosphere_sampler(n, seed)
        alphas = sc._kronecker_alphas(n)
        offset = np.random.default_rng(seed).random(n)
        for i in range(256):
            g = ndtri(np.clip((offset + (i + 1) * alphas) % 1.0, 1e-12, 1 - 1e-12))
            assert np.abs(sample(i) - g / np.linalg.norm(g)).max() <= 1e-14, i


def matrix_valued(n, m, mat, poly):
    r = mat.shape[0]
    return TwistedHarmonic(n, m, tuple(poly * mat[i, j] for i in range(r) for j in range(r)))


def subsphere_component(A1, u, xi0, m0):
    """Independent construction of the degree-m0 sub-sphere harmonic part of
    [A1(v), u(v)] restricted to {v unit, v perp xi0}, plus its norm^2 there.

    Returns (Am0, norm_sq): Am0 extends the component back to R^n via the
    orthonormal complement coordinates."""
    n = A1.n
    r = A1.r
    W = sc._orthonormal_complement(np.asarray(xi0, dtype=float))
    # commutator entries as polynomials in v, then restricted: g(y) = f(W y)
    vpoly = [HPoly.variable(n, j) for j in range(n)]
    comm_entries = []
    for i in range(r):
        row = []
        for j in range(r):
            acc = HPoly.zero(n, u.m + 1)
            for jj in range(n):
                for k in range(r):
                    aik = A1.coeffs[(0,) * n][jj][i, k]
                    uik = A1.coeffs[(0,) * n][jj][k, j]
                    if aik != 0:
                        acc = acc + vpoly[jj] * (u.entry(k, j, r) * aik)
                    if uik != 0:
                        acc = acc - vpoly[jj] * (u.entry(i, k, r) * uik)
            row.append(acc)
        comm_entries.append(row)
    norm_sq = 0.0
    ext_entries = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            g = comm_entries[i][j].compose_linear(W)  # poly in n-1 vars
            h_m0 = HPoly.zero(n - 1, m0)
            for k, h in ph.harmonic_decompose(g):
                if h.m == m0:
                    h_m0 = h
            norm_sq += abs(ph.sphere_inner(h_m0, h_m0))
            ext_entries[i][j] = h_m0.compose_linear(W.T)
    Am0 = TwistedHarmonic.from_matrix_entries(n, m0, ext_entries)
    return Am0, norm_sq


class TestFiberSymbolPairing:
    def test_commuting_gives_zero(self):
        sz = np.array([[1j, 0], [0, -1j]])
        A1 = FourierConnection.cosine_mode(3, (0, 0, 0), 0, sz)
        u = matrix_valued(3, 1, sz, HPoly.variable(3, 1))
        Am0 = matrix_valued(3, 1, sz, HPoly.variable(3, 1))
        val = sc.fiber_symbol_pairing(A1, u, Am0, np.array([0.0, 0, 1.0]), nq=512)
        assert abs(val) < 1e-12

    def test_positive_case_matches_norm(self, rng):
        n, r = 3, 2
        A1 = FourierConnection.cosine_mode(n, (0,) * n, 0, random_skew_hermitian(rng, r))
        basis = ca.skew_hermitian_basis(r)
        hb = ph.harmonic_basis(n, 1)
        cols = []
        comps = [hb.combine(rng.standard_normal(len(hb))) for _ in basis]
        for i in range(r):
            for j in range(r):
                acc = HPoly.zero(n, 1)
                for p, s in zip(comps, basis):
                    acc = acc + p * s[i, j]
                cols.append(acc)
        u = TwistedHarmonic(n, 1, tuple(cols))
        xi0 = np.array([0.0, 0.0, 2.0])
        m0 = 2
        Am0, norm_sq = subsphere_component(A1, u, xi0, m0)
        assert norm_sq > 1e-6
        val, err = sc.fiber_symbol_pairing(A1, u, Am0, xi0, nq=10_000, return_error=True)
        expected = 2 * math.pi / np.linalg.norm(xi0) * norm_sq
        assert val.real == pytest.approx(expected, rel=1e-6)
        assert abs(val.imag) < 1e-9 * expected
        assert err < 1e-8 * expected

    def test_orthogonal_component_gives_zero(self, rng):
        # a component of the wrong parity is absent from the commutator
        n, r = 3, 2
        A1 = FourierConnection.cosine_mode(n, (0,) * n, 0, random_skew_hermitian(rng, r))
        u = matrix_valued(n, 1, ca.skew_hermitian_basis(r)[0], HPoly.variable(n, 0))
        xi0 = np.array([0.0, 0.0, 1.0])
        # commutator has degree 2 in v: odd sub-sphere degrees vanish
        h_odd = ph.harmonic_basis(n - 1, 1).members[0]
        W = sc._orthonormal_complement(xi0)
        Am0 = matrix_valued(n, 1, ca.skew_hermitian_basis(r)[1], h_odd.compose_linear(W.T))
        val = sc.fiber_symbol_pairing(A1, u, Am0, xi0, nq=2048)
        assert abs(val) < 1e-10

    def test_n2_unsupported(self):
        A1 = FourierConnection.cosine_mode(2, (0, 0), 0, 1j * np.eye(2))
        u = TwistedHarmonic.zero(2, 1, 4)
        with pytest.raises(ValidationError):
            sc.fiber_symbol_pairing(A1, u, u, np.array([1.0, 0]))
