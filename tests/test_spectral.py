import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cktlab import spectral as sp
from cktlab.errors import ConvergenceError, ValidationError

from conftest import random_skew_hermitian


class TestSpectralWindow:
    def test_diag_example(self):
        X = np.diag([0.0, 1j, -1j])
        W = sp.spectral_window(X, 0.5)
        assert W.clearance == 1.0  # (|w| - 0.5) / 0.5 at |w| = 1; w = 0 is inside
        assert np.abs(W.pi0_plus - np.diag([1.0, 0, 0])).max() < 1e-11
        assert np.abs(W.pi0_minus - W.pi0_plus).max() < 1e-11
        assert sp.resolvent_identity_check(W) < 1e-10

    def test_invertible_case(self):
        X = np.diag([2j, -2j, 3j])
        W = sp.spectral_window(X, 0.5)
        assert np.abs(W.pi0_plus).max() < 1e-11
        assert np.abs(W.r0_plus - np.linalg.inv(X)).max() < 1e-10

    def test_planted_kernel(self, rng):
        X = sp.random_skew_adjoint_with_kernel(rng, 12, 2)
        W = sp.spectral_window(X, 0.25)
        assert abs(np.trace(W.pi0_plus).real - 2) < 1e-9
        # orthogonal projector for skew-adjoint X
        assert np.abs(W.pi0_plus - W.pi0_plus.conj().T).max() < 1e-10
        assert np.abs(W.pi0_plus - W.pi0_minus).max() < 1e-10

    def test_zero_matrix(self):
        W = sp.spectral_window(np.zeros((3, 3)), 1.0)
        assert np.abs(W.pi0_plus - np.eye(3)).max() < 1e-11
        assert np.abs(W.r0_plus).max() < 1e-11
        assert sp.resolvent_identity_check(W) < 1e-10

    def test_contour_through_spectrum_rejected(self):
        X = np.diag([0.5j, -0.5j])
        with pytest.raises(ValidationError) as ei:
            sp.spectral_window(X, 0.5)
        assert "nearest eigenvalue" in str(ei.value)

    def test_enclosed_nonzero_eigenvalues_rejected(self):
        # the disc |z| < 2 holds +-i as well as 0: the constant Laurent term
        # would not be the reduced resolvent at 0
        with pytest.raises(ValidationError, match="2 nonzero eigenvalue"):
            sp.spectral_window(np.diag([0.0, 1j, -1j]), 2.0)

    def test_enclosed_zero_by_the_default_radius_rule_accepted(self):
        # 1e-14 is below 1e-12 max|lambda|: default_window_radius counts it
        # as zero, and so does the window
        X = np.diag([0.0, 1e-14, 1j])
        assert sp.default_window_radius(X) == 0.5
        W = sp.spectral_window(X, 0.5)
        assert abs(np.trace(W.pi0_plus) - 2) < 1e-11

    @staticmethod
    def _ill_conditioned(d, cond):
        # S diag(d) S^-1 with cond(S) = cond
        rng = np.random.default_rng(3)
        n = len(d)
        U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        S = U @ np.diag(np.logspace(0, np.log10(cond), n)) @ V
        return S @ np.diag(d) @ np.linalg.inv(S)

    def test_ill_conditioned_semisimple_kernel_accepted(self):
        # rounding lifts a zero eigenvalue above 1e-12 max|lambda|, but not
        # above its condition number times n eps |X|_F
        X = self._ill_conditioned([0, 0, 3j], 1e3)
        mags = np.abs(np.linalg.eigvals(X))
        assert ((mags > 1e-12 * mags.max()) & (mags < 1.0)).any()
        W = sp.spectral_window(X, 1.0)
        assert abs(np.trace(W.pi0_plus) - 2) < 1e-11
        assert W.eig_crosscheck < 1e-8

    def test_stalled_quadrature_reports_its_margin(self):
        # cond(S) = 1e5: |Pi|_F is about 2e4 and the projector change stalls
        # near 1e-6, above the absolute 1e-11 at every level
        X = self._ill_conditioned([0, 0, 3j, -2.5j], 1e5)
        with pytest.raises(ConvergenceError) as ei:
            sp.spectral_window(X)
        margin = re.search(r"last projector change (\S+), \|Pi\|_F (\S+)$", str(ei.value))
        assert 1e-11 < float(margin[1]) < 1e-4
        assert float(margin[2]) > 1e4

    def test_ill_conditioned_window_converges_at_its_own_scale(self):
        # cond(S) = 1e4: max|Pi| is about 1.4e3, so an absolute 1e-11 would
        # ask for a relative change of 1e-14 and stall; the stop scales with
        # max|Pi|
        X = self._ill_conditioned([0, 0, 3j, -2.5j], 1e4)
        W = sp.spectral_window(X)
        assert np.abs(W.pi0_plus).max() > 1e3
        assert W.quadrature_nodes < 1 << 15
        assert W.enclosed == 2
        assert abs(np.trace(W.pi0_plus) - 2) < 1e-9
        assert W.eig_crosscheck < 1e-6

    def test_clearance_is_over_the_outer_spectrum(self):
        # w = 0 inside the contour, at relative distance 1, does not count;
        # no outer eigenvalue is inf
        assert sp.spectral_window(np.diag([0.0, 2j, -3j]), 0.5).clearance == 3.0
        assert sp.spectral_window(np.zeros((3, 3)), 1.0).clearance == np.inf

    def test_ill_conditioned_nonzero_enclosed_rejected(self):
        X = self._ill_conditioned([0, 0.5j, 3j], 1e3)
        with pytest.raises(ValidationError, match="1 nonzero eigenvalue"):
            sp.spectral_window(X, 1.0)

    @pytest.mark.parametrize("cond", [1e2, 1e3, 1e4, 1e6])
    def test_default_radius_of_ill_conditioned_zero_cluster(self, cond):
        # the zero eigenvalues come out of eig within their rounding error,
        # so the default radius is half of |3i|, not half a rounding error
        X = self._ill_conditioned([0, 0, 3j], cond)
        assert sp.default_window_radius(X) == pytest.approx(1.5, rel=1e-6)

    def test_default_window_of_ill_conditioned_zero_cluster_has_rank_2(self):
        X = self._ill_conditioned([0, 0, 3j], 1e3)
        W = sp.spectral_window(X)
        assert W.contour_radius == pytest.approx(1.5, rel=1e-6)
        assert W.enclosed == 2
        assert abs(np.trace(W.pi0_plus) - 2) < 1e-11
        assert W.eig_crosscheck < 1e-8

    def test_default_radius_keeps_defective_eigenvalues_nonzero(self):
        # a Jordan block's kappa is about 1/eps: rounding does not excuse it
        assert sp.default_window_radius(np.array([[1.0, 1.0], [0.0, 1.0]])) == 0.5

    @pytest.mark.parametrize("J, radius", [
        ([[0.5, 1.0], [0.0, 0.5]], 0.7),
        ([[1.0, 1.0], [0.0, 1.0]], 1.5),
        ([[0.0, 1.0], [0.0, 0.0]], 1.0),
    ])
    def test_defective_cluster_rejected(self, J, radius):
        # kappa of a Jordan block excuses its eigenvalue as rounding, but
        # X Pi, the eigennilpotent, is of order one
        with pytest.raises(ValidationError, match="not semisimple"):
            sp.spectral_window(np.array(J), radius)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("cond", [1.0, 1e2])
    def test_conjugated_jordan_block_at_zero_rejected(self, n, cond):
        J = np.diag(np.concatenate([[0, 0], 1j * np.linspace(2, 4, n - 2)]))
        J[0, 1] = 1.0
        rng = np.random.default_rng(n)
        U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        S = U @ np.diag(np.logspace(0, np.log10(cond), n))
        with pytest.raises(ValidationError, match="not semisimple"):
            sp.spectral_window(S @ J @ np.linalg.inv(S), 1.0)

    def test_enclosed_count(self, rng):
        for X, radius in ((np.diag([0.0, 0.0, 1j]), 0.5), (np.diag([2j, -2j]), 0.5),
                          (sp.random_skew_adjoint_with_kernel(rng, 12, 3), 0.25)):
            w = np.linalg.eigvals(X)
            assert sp.spectral_window(X, radius).enclosed == int((np.abs(w) < radius).sum())

    def test_quadrature_matches_eigenprojectors(self, rng):
        # random matrices, gap >= 0.1 around the contour
        for _ in range(100):
            dim = int(rng.integers(2, 41))
            X = sp.random_skew_adjoint_with_kernel(rng, dim, int(rng.integers(0, 3)),
                                                   gap=0.6, spread=4.0)
            W = sp.spectral_window(X, 0.3)
            assert W.eig_crosscheck < 1e-10


class TestIdentities:
    def test_valid_windows_small_residual(self, rng):
        for _ in range(20):
            X = sp.random_skew_adjoint_with_kernel(rng, 15, int(rng.integers(0, 4)))
            W = sp.spectral_window(X, 0.25)
            assert sp.resolvent_identity_check(W) <= 1e-9

    def test_detects_corruption(self, rng):
        X = sp.random_skew_adjoint_with_kernel(rng, 10, 1)
        W = sp.spectral_window(X, 0.25)
        W.r0_plus = W.r0_plus + 1e-3 * np.eye(10)
        resid = sp.resolvent_identity_check(W)
        assert 1e-4 < resid < 1e-1

    def test_non_normal_matrix(self, rng):
        # identities hold for any matrix whose 0-cluster is semisimple at 0
        A = rng.standard_normal((8, 8))
        # block: strictly nonzero spectrum plus a genuine kernel direction
        X = np.block([
            [np.zeros((2, 2)), np.zeros((2, 6))],
            [np.zeros((6, 2)), A[:6, :6] + 6 * np.eye(6)],
        ])
        W = sp.spectral_window(X, 1.0)
        assert sp.resolvent_identity_check(W) < 1e-8


class TestPiOperator:
    def test_skew_adjoint_vanishes(self, rng):
        for _ in range(10):
            X = sp.random_skew_adjoint_with_kernel(rng, 12, int(rng.integers(0, 3)))
            W = sp.spectral_window(X, 0.25)
            P = sp.pi_operator(W)
            assert np.abs(P).max() <= 1e-10
            assert np.abs(P - P.conj().T).max() <= 1e-10

    def test_zero_matrix(self):
        W = sp.spectral_window(np.zeros((2, 2)), 1.0)
        assert np.abs(sp.pi_operator(W)).max() < 1e-11

    def test_non_normal_by_construction(self, rng):
        X = np.triu(rng.standard_normal((6, 6))) + 4 * np.eye(6)
        W = sp.spectral_window(X, 1.0)
        P = sp.pi_operator(W)
        assert np.abs(P - (W.r0_plus + W.r0_minus)).max() == 0
        # finite dimension: the two Laurent constant terms cancel exactly
        assert np.abs(P).max() < 1e-9


class TestLambdaDerivatives:
    def test_diag_first_order(self, rng):
        X = np.diag([0.0, 1j, -1j])
        P_A = random_skew_hermitian(rng, 3)
        d1c, d2c, d1f, d2f = sp.lambda_derivatives(sp.spectral_window(X, 0.5), P_A)
        assert d1c == pytest.approx(-P_A[0, 0], rel=1e-10, abs=1e-12)
        assert abs(d1c.real) < 1e-12  # purely imaginary
        assert abs(d1f - d1c) <= 1e-6 * (1 + abs(d1c))
        assert abs(d2f - d2c) <= 1e-6 * (1 + abs(d2c))

    def test_commuting_vanishing_perturbation(self):
        X = np.diag([0.0, 2j, -2j])
        P_A = np.diag([0.0, 1j, 1j])  # commutes with X, vanishes on ker X
        d1c, d2c, d1f, d2f = sp.lambda_derivatives(sp.spectral_window(X, 0.5), P_A)
        assert abs(d1c) < 1e-12 and abs(d2c) < 1e-11
        assert abs(d1f) < 1e-8 and abs(d2f) < 1e-6

    def test_random_bulk(self, rng):
        for _ in range(50):
            dim = int(rng.integers(3, 41))
            X = sp.random_skew_adjoint_with_kernel(rng, dim, int(rng.integers(1, 3)),
                                                   gap=0.8, spread=4.0)
            P_A = random_skew_hermitian(rng, dim)
            d1c, d2c, d1f, d2f = sp.lambda_derivatives(sp.spectral_window(X, 0.4), P_A)
            assert abs(d1f - d1c) <= 1e-6 * (1 + abs(d1c))
            assert abs(d2f - d2c) <= 1e-6 * (1 + abs(d2c))

    def test_torus_generator_parity(self, rng):
        # the stacked torus generator with a 1-form perturbation: the first
        # derivative vanishes by parity of the kernel elements, the second
        # matches finite differences
        from cktlab import torusmodel as tm

        cfg = tm.TorusConfig(2, 1, 0, 1)
        conn = tm.FourierConnection.cosine_mode(2, (0, 1), 0, 0.6j * np.eye(1))
        G, _ = tm.build_generator(cfg, conn, mmax=1)
        A = tm.FourierConnection.cosine_mode(2, (1, 0), 1, 0.5j * np.eye(1))
        P, _ = tm.generator_perturbation(cfg, A, mmax=1)
        Gd, Pd = G.toarray(), P.toarray()
        radius = sp.default_window_radius(Gd)
        d1c, d2c, d1f, d2f = sp.lambda_derivatives(sp.spectral_window(Gd, radius), Pd)
        assert abs(d1c) <= 1e-12
        assert abs(d1f - d1c) <= 1e-6 * (1 + abs(d1c))
        assert abs(d2f - d2c) <= 1e-6 * (1 + abs(d2c))

    def test_stencil_escape_detected(self):
        # the default step is h = 0.01: at s = -2h the eigenvalue 0.515i
        # moves to 0.495i, inside the contour
        X = np.diag([0.0, 0.515j, -1j])
        P_A = np.diag([0.0, 1j, 0.0])
        with pytest.raises(ValidationError, match="leaves the contour"):
            sp.lambda_derivatives(sp.spectral_window(X, 0.5), P_A)

    def test_underflowing_step_rejected(self):
        # radius 1e-300 gives h ~ 1e-302, whose square underflows to 0: the
        # second difference was 0 / 0, a nan d2 with no error
        X = np.diag([1j, -1j])
        P_A = np.diag([1j, 0.0])
        W = sp.spectral_window(X, 1e-300)
        with pytest.raises(ValidationError, match=r"h = \S+ \(radius 1e-300\) underflows"):
            sp.lambda_derivatives(W, P_A)
        with pytest.raises(ValidationError, match="underflows"):
            sp.perturbation_suite([(W, P_A, 0.05 * P_A)], np.linspace(-1, 1, 3))

    def test_traced_peak_of_one_window(self, rng):
        # a one-item call sizes the suite's stack by its 5 rows: at size 12
        # the peak was 1.18 MiB when it took the full 2^16-entry capacity
        X = sp.random_skew_adjoint_with_kernel(rng, 12, 2, gap=0.8, spread=4.0)
        P_A = random_skew_hermitian(rng, 12)
        W = sp.spectral_window(X, 0.3)
        want = sp.lambda_derivatives(W, P_A)  # warm-up: lazy imports and caches
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = sp.lambda_derivatives(W, P_A)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert got == want
        assert peak <= 0.5 * 2**20


class TestTorusGeneratorWindow:
    def test_projector_is_kernel_gram_and_frame_conditioned(self, rng):
        # the stacked torus generator is skew-adjoint; its window projector
        # at 0 equals the Gram projector of an orthonormal kernel basis, the
        # kernel is mode-0 supported with dim <= fiber dim per degree block,
        # and the pointwise Gram of the kernel sections stays well-conditioned
        from cktlab import torusmodel as tm
        from cktlab.polyharm import dims

        cfg = tm.TorusConfig(2, 2, 0, 2)
        conn = tm.FourierConnection.constant(2, [np.diag([1j, 2j]), np.zeros((2, 2))])
        G, offs = tm.build_generator(cfg, conn, mmax=1)
        Gd = G.toarray()
        assert np.abs(Gd + Gd.conj().T).max() < 1e-12
        _, s, vt = np.linalg.svd(Gd)
        rank = int((s > 1e-10 * s[0]).sum())
        kernel = vt[rank:, :].conj().T
        W = sp.spectral_window(Gd, radius=None)
        gram_proj = kernel @ kernel.conj().T
        assert np.abs(W.pi0_plus - gram_proj).max() < 1e-9
        # the top truncated degree carries an artifact kernel (its raising
        # constraint is cut off); the physical kernel is the part supported
        # in lower degrees, here the planted diagonal frame at degree 0
        deg1_mass = np.linalg.norm(kernel[offs[1]:offs[2], :], axis=0)
        physical = kernel[:, deg1_mass < 1e-8]
        assert physical.shape[1] == 2
        assert physical.shape[1] <= cfg.fdim
        xs = rng.uniform(0, 2 * np.pi, (100, 2))
        vs = rng.standard_normal((100, 2))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        vals = tm.eval_sections(cfg, physical[offs[0]:offs[1], :], xs, vs, degree=0)
        for i in range(100):
            sv = np.linalg.svd(vals[i], compute_uv=False)
            assert sv[0] / sv[-1] <= 1e3


class TestConjugation:
    def test_skew_adjoint_grid(self, rng):
        X = sp.random_skew_adjoint_with_kernel(rng, 10, 2)
        P_A = random_skew_hermitian(rng, 10)
        P_A = 0.05 * P_A / np.linalg.norm(P_A, 2)
        worst = sp.conjugation_check(X, P_A, np.linspace(-0.5, 0.5, 5), radius=0.25)
        assert worst <= 1e-9

    def test_s_zero(self, rng):
        X = sp.random_skew_adjoint_with_kernel(rng, 8, 1)
        P_A = random_skew_hermitian(rng, 8)
        assert sp.conjugation_check(X, P_A, [0.0], radius=0.25) <= 1e-10

    def test_real_window_eigenvalue_fires(self):
        # the window holds the real eigenvalue 0.1; the real coupling keeps
        # the trace of the first 2 x 2 block, so lambda_s^+ = -0.1 on the
        # grid and the defect is 2 |Re lambda^+|
        X = np.diag([0.0, 0.1, 2j, -3j])
        P_A = np.zeros((4, 4))
        P_A[0, 1] = P_A[1, 0] = 0.05
        defect = sp.conjugation_check(X, P_A, [-0.5, 0.0, 0.5], radius=0.25)
        assert defect == pytest.approx(0.2, rel=1e-12)
        assert sp.cluster_sum_minus(X, 0.25) == pytest.approx(0.1, rel=1e-12)

    def test_real_part_stays_zero(self, rng):
        # skew-adjoint + skew-Hermitian family has imaginary spectrum, so
        # Re lambda(s) = 0 exactly; the O(s^3) bound holds trivially
        X = sp.random_skew_adjoint_with_kernel(rng, 8, 2)
        P_A = random_skew_hermitian(rng, 8)
        P_A = 0.1 * P_A / np.linalg.norm(P_A, 2)
        for s in np.linspace(-0.3, 0.3, 7):
            lam = sp.cluster_sum(X + s * P_A, 0.25)
            assert abs(lam.real) < 1e-10


def _endpoint_sums(X, radius, N):
    """Direct N-node endpoint rule, one solve per node: means of
    (z R+, R+, z R-, R-) and of z^2 Tr R+ with R+ = (X+z)^{-1}, R- = (z-X)^{-1}."""
    eye = np.eye(X.shape[0])
    acc = np.zeros((4,) + X.shape, dtype=complex)
    trace = 0j
    for k in range(N):
        z = radius * np.exp(2j * np.pi * k / N)
        res_p = np.linalg.solve(X + z * eye, eye)
        res_m = np.linalg.solve(z * eye - X, eye)
        acc += np.stack([z * res_p, res_p, z * res_m, res_m])
        trace += z * z * np.trace(res_p)
    return acc / N, trace / N


def _similar_non_skew(rng, X):
    """S X S^-1 for a random S near the identity: X's spectrum, not skew."""
    S = np.eye(len(X)) + 0.1 * rng.standard_normal(X.shape)
    return S @ X @ np.linalg.inv(S)


class TestNestedNodes:
    @staticmethod
    def _check_levels(X):
        radius = 0.3
        levels = sp._trapezoid_levels(X, radius, max_nodes=256)
        Ns = []
        for N, sums in levels:
            direct, _ = _endpoint_sums(X, radius, N)
            # the two integrands z R+ and R+; the minus convention is not integrated
            assert np.abs(sums - direct[:2]).max() <= 1e-13
            Ns.append(N)
        assert Ns == [16, 32, 64, 128, 256]

    def test_levels_match_direct_endpoint_sums(self, rng):
        # a skew-Hermitian X inverts one node of each pair
        X = sp.random_skew_adjoint_with_kernel(rng, 12, 2, gap=0.5, spread=3.0)
        assert sp._skew(X)
        self._check_levels(X)

    def test_non_skew_levels_match_direct_endpoint_sums(self, rng):
        # any other X inverts every node
        X = _similar_non_skew(rng, sp.random_skew_adjoint_with_kernel(rng, 12, 2, gap=0.5,
                                                                      spread=3.0))
        assert not sp._skew(X)
        self._check_levels(X)

    def test_one_inverse_per_node(self, rng, monkeypatch):
        X = sp.random_skew_adjoint_with_kernel(rng, 12, 2, gap=0.5, spread=3.0)
        non_skew = _similar_non_skew(rng, X)
        inverted = []
        inv = np.linalg.inv

        def counted(a):
            inverted.append(len(a) if a.ndim == 3 else 1)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        W = sp.spectral_window(non_skew, 0.3)
        # one resolvent per node and eig's V^-1
        assert sum(inverted) == W.quadrature_nodes + 1
        inverted.clear()
        W = sp.spectral_window(X, 0.3)
        # a skew-Hermitian X pairs the nodes: 9 of level 16's 16 (two are
        # their own twins) and a quarter of each later level's N, N/2 + 1
        # in all, and eig's V^-1
        assert sum(inverted) == W.quadrature_nodes // 2 + 1 + 1

    def test_quadrature_nodes_is_converged_level(self, rng):
        X = sp.random_skew_adjoint_with_kernel(rng, 15, 1, gap=0.5, spread=3.0)
        radius = 0.3
        W = sp.spectral_window(X, radius)
        N, prev = 16, None
        while True:
            direct, _ = _endpoint_sums(X, radius, N)
            if prev is not None and np.abs(direct[0] - prev).max() <= 1e-11:
                break
            prev, N = direct[0], 2 * N
        assert W.quadrature_nodes == N
        for got, want in zip((W.pi0_plus, W.r0_plus, W.pi0_minus, W.r0_minus), direct):
            assert np.abs(got - want).max() <= 1e-13

    def test_cluster_sum_is_converged_level(self, rng):
        X = sp.random_skew_adjoint_with_kernel(rng, 10, 2, gap=0.5, spread=3.0)
        X = X + 0.05 * random_skew_hermitian(rng, 10)
        radius = 0.3
        N, prev = 16, None
        while True:
            _, val = _endpoint_sums(X, radius, N)
            if prev is not None and abs(val - prev) <= 1e-12 * max(1.0, abs(val)):
                break
            prev, N = val, 2 * N
        assert N > 16
        assert abs(sp.cluster_sum(X, radius) - val) <= 1e-13


@st.composite
def hessenberg_cases(draw, hessenberg=True):
    """A (B, n, n) stack of random non-normal complex matrices and (B, m) nodes z,
    one row of nodes per matrix.

    Zero diagonals and zeroed subdiagonal entries force both pivot
    choices of the shifted Hessenberg elimination (and its no-op steps).
    Hessenberg stacks are banded at a drawn upper bandwidth, so the
    trace walk runs on rows of every width.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, B, m = draw(st.integers(1, 12)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    M = rng.standard_normal((B, n, n)) + 1j * rng.standard_normal((B, n, n))
    if hessenberg:
        M = np.triu(M, -1) - np.triu(M, draw(st.integers(0, n)) + 1)
    if draw(st.booleans()):
        M[:, np.arange(n), np.arange(n)] = 0
    if n > 1 and draw(st.booleans()):
        k = rng.integers(0, n - 1, size=int(rng.integers(1, n)))
        M[:, k + 1, k] = 0
    scale = draw(st.sampled_from([0.0, 0.01, 0.3, 1.0, 3.0]))
    z = scale * (rng.standard_normal((B, m)) + 1j * rng.standard_normal((B, m)))
    return M, z


class TestHessenbergTraces:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_reduction_is_odd(self, n, rng):
        # every Householder step is sign-symmetric (the reflector's phase
        # follows x_0), so the reduction of -X is minus that of X
        X = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        assert np.array_equal(sp._hessenberg(-X), -sp._hessenberg(X.copy()))

    def test_row_blocks_keep_the_forms_and_bound_the_peak(self, rng, monkeypatch):
        # the kato bench's stack, 35 matrices of size 40 (0.85 MiB): whole-slab
        # rank-1 updates took 1.16 MiB of extra traced peak; updates in row
        # blocks take less and give the same forms bit for bit
        X = rng.standard_normal((35, 40, 40)) + 1j * rng.standard_normal((35, 40, 40))
        sp._hessenberg(X[:1].copy())  # warm-up
        H = X.copy()
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sp._hessenberg(H)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 0.6 * 2**20
        monkeypatch.setattr(sp, "_ROW_BLOCK", X.shape[1])  # one block: whole slabs
        assert sp._hessenberg(X.copy()).tobytes() == H.tobytes()

    @settings(deadline=None, max_examples=150)
    @given(hessenberg_cases(hessenberg=False))
    def test_hessenberg_is_unitary_reduction(self, case):
        X, _ = case
        H = sp._hessenberg(X.copy())
        assert not np.tril(H, -2).any()
        scale = max(1.0, float(np.abs(X).max()))
        trace = np.trace(H, axis1=1, axis2=2) - np.trace(X, axis1=1, axis2=2)
        assert np.abs(trace).max() <= 1e-13 * scale * X.shape[1]
        frob = np.linalg.norm(H, axis=(1, 2)) - np.linalg.norm(X, axis=(1, 2))
        assert np.abs(frob).max() <= 1e-13 * scale * X.shape[1]

    @settings(deadline=None, max_examples=300)
    @given(hessenberg_cases())
    def test_traces_match_dense_inverse(self, case):
        H, z = case
        A = H[:, None] + z[:, :, None, None] * np.eye(H.shape[1])
        assume(np.linalg.cond(A).max() < 1e10)
        inv = np.linalg.inv(A)
        got = sp._hessenberg_traces(H, z)
        want = np.trace(inv, axis1=2, axis2=3)
        # relative to |(H + z)^{-1}|_F, the scale of the trace's terms
        assert (np.abs(got - want) <= 1e-12 * np.linalg.norm(inv, axis=(2, 3))).all()

    def test_singular_shift_is_nan(self):
        H = np.array([[[0.0, 1.0], [0.0, 0.3]]], dtype=complex)
        tr = sp._hessenberg_traces(H, np.array([[0.0, -0.3, 1.0]]))
        assert np.isnan(tr[0, :2]).all()
        assert tr[0, 2] == pytest.approx(1 / 1.0 + 1 / 1.3, rel=1e-14)


def _skew_with_inner(rng, n, outer=None):
    """An exactly skew-Hermitian n x n matrix: a drawn number of eigenvalues
    i t, |t| <= 0.15, the rest at |t| >= 0.8, conjugated by a random unitary.
    With outer, the non-skew S diag S^-1 of the same spectrum instead."""
    inner = int(rng.integers(0, n + 1))
    t = np.concatenate([rng.uniform(-0.15, 0.15, inner),
                        rng.choice([-1, 1], n - inner) * rng.uniform(0.8, 4.0, n - inner)])
    if outer is not None:
        S = np.eye(n) + 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)
        return (S * 1j * t) @ np.linalg.inv(S)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    M = (Q * 1j * t) @ Q.conj().T
    return (M - M.conj().T) / 2


class TestSkewStacks:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(0, 30))
    def test_generator_is_exactly_skew_hermitian(self, seed, dim, kernel_dim):
        X = sp.random_skew_adjoint_with_kernel(np.random.default_rng(seed), dim,
                                               min(kernel_dim, dim))
        assert np.array_equal(X, -X.conj().T)
        assert sp._skew(X)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 40])
    def test_reduction_of_a_skew_matrix_is_tridiagonal(self, rng, n):
        # rounding leaves entries of size eps |X| above the superdiagonal of
        # the skew form, which the reduction sets to 0; the non-skew form of
        # the same spectrum keeps its upper triangle
        X = np.stack([_skew_with_inner(rng, n), _skew_with_inner(rng, n, outer=True)])
        H = sp._hessenberg(X.copy())
        assert not np.triu(H[0], 2).any()
        assert sp._band(H[:1]) == min(1, n - 1)
        assert sp._band(H) == n - 1
        scale = float(np.abs(X[0]).max())
        assert np.abs(H[0] + H[0].conj().T).max() <= 1e-13 * scale * n
        assert abs(np.trace(H[0]) - np.trace(X[0])) <= 1e-13 * scale * n
        assert abs(np.linalg.norm(H[0]) - np.linalg.norm(X[0])) <= 1e-13 * scale * n

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 16))
    def test_sums_do_not_depend_on_the_walk_width(self, seed, B, n):
        # a skew matrix's sum alone (a tridiagonal walk), in a stack of skew
        # matrices (tridiagonal) and in a stack with one non-skew matrix (a
        # full-width walk) is the same bit for bit, and it is minus the sum
        # of its eigenvalues inside the circle
        rng = np.random.default_rng(seed)
        Xs = np.stack([_skew_with_inner(rng, n) for _ in range(B)])
        radii = rng.uniform(0.3, 0.5, B)
        alone = [sp._hessenberg_sums(sp._hessenberg(Xs[b:b + 1].copy()), radii[b:b + 1])[0]
                 for b in range(B)]
        assert sp._hessenberg_sums(sp._hessenberg(Xs.copy()), radii).tolist() == alone
        at = int(rng.integers(0, B + 1))
        mixed = np.insert(Xs, at, _skew_with_inner(rng, n, outer=True), axis=0)
        H = sp._hessenberg(mixed)
        assert sp._band(H) == n - 1  # the non-skew form's full width
        sums = sp._hessenberg_sums(H, np.insert(radii, at, 0.4)).tolist()
        del sums[at]
        assert sums == alone
        for X, radius, got in zip(Xs, radii, alone):
            evals = np.linalg.eigvals(X)
            want = -evals[np.abs(evals) < radius].sum()
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestBatchedClusterSums:
    RADIUS = 0.3

    @staticmethod
    def _matrix(rng, outer):
        """Skew-adjoint 8x8: two eigenvalues near 0, the rest at |lambda| >= outer."""
        evals = 1j * np.concatenate([[0.0, 0.02], outer * np.array([1, -1, 1.5, -2, 3, -4])])
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        return (Q * evals) @ Q.conj().T

    def test_each_matrix_keeps_its_own_level(self, rng):
        fast, slow = self._matrix(rng, 0.8), self._matrix(rng, 0.4)
        for X, N in ((fast, 64), (slow, 128)):
            with pytest.raises(ConvergenceError):
                sp._cluster_sums(X[None], self.RADIUS, max_nodes=N // 2)
            sp._cluster_sums(X[None], self.RADIUS, max_nodes=N)
        batch = sp._cluster_sums(np.stack([fast, slow, fast]), self.RADIUS)
        single = [sp.cluster_sum(X, self.RADIUS) for X in (fast, slow, fast)]
        assert np.abs(batch - single).max() <= 1e-15
        evals = np.linalg.eigvals(slow)
        assert abs(batch[1] + evals[np.abs(evals) < self.RADIUS].sum()) <= 1e-12

    def test_fd_sums_invert_nothing(self, rng, monkeypatch):
        X = sp.random_skew_adjoint_with_kernel(rng, 12, 2, gap=0.8, spread=4.0)
        P_A = random_skew_hermitian(rng, 12)
        W = sp.spectral_window(X, 0.3)

        def no_inverse(a):
            raise AssertionError("dense inverse in a cluster sum")

        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        sp.lambda_derivatives(W, P_A)
        sp.conjugation_check(X, 0.05 * P_A, np.linspace(-1, 1, 3), radius=0.3)

    def test_empty_grid(self, rng):
        X = sp.random_skew_adjoint_with_kernel(rng, 6, 1)
        assert sp.conjugation_check(X, random_skew_hermitian(rng, 6), [], radius=0.3) == 0.0

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 12))
    @example(seed=2383681, B=4, n=12)  # matrix 1 has an eigenvalue 7.7e-5 off its circle
    def test_sums_do_not_depend_on_the_stack(self, seed, B, n):
        # each matrix's sum, in a shuffled stack of matrices on circles of
        # their own radii, equals its sum computed alone, bit for bit; a
        # matrix whose sum fails alone (an eigenvalue too near its circle
        # for max_nodes) fails the stack with the same error
        rng = np.random.default_rng(seed)
        Xs = np.stack([sp.random_skew_adjoint_with_kernel(rng, n, int(rng.integers(0, n + 1)),
                                                          gap=0.8, spread=4.0)
                       + 0.05 * random_skew_hermitian(rng, n) for _ in range(B)])
        radii = rng.uniform(0.25, 0.5, B)
        H = sp._hessenberg(Xs.copy())
        alone = []
        for b in range(B):
            try:
                alone.append(sp._hessenberg_sums(H[b:b + 1].copy(), radii[b:b + 1])[0])
            except (ConvergenceError, ValidationError) as exc:
                alone.append(exc)
        order = rng.permutation(B)
        failed = [type(alone[b]) for b in order if isinstance(alone[b], Exception)]
        if failed:
            error = ValidationError if ValidationError in failed else ConvergenceError
            with pytest.raises(error):
                sp._hessenberg_sums(H[order].copy(), radii[order])
            order = np.array([b for b in order if not isinstance(alone[b], Exception)], dtype=int)
        together = sp._hessenberg_sums(H[order], radii[order])
        assert together.tolist() == [alone[b] for b in order]

    def test_one_matrix_grid_agrees_with_the_suite(self):
        # a one-point grid is a one-matrix stack, whose level sums went
        # through BLAS's dot kernel while the suite's stack took gemv: the
        # conjugation defects disagreed in their last bits on every seed
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = sp.random_skew_adjoint_with_kernel(rng, 12, 2, gap=0.8, spread=4.0)
            P_A = random_skew_hermitian(rng, 12)
            W = sp.spectral_window(X, 0.3)
            [suite] = sp.perturbation_suite([(W, P_A, 0.05 * P_A)], [0.25])
            assert suite[4] == sp.conjugation_check(X, 0.05 * P_A, [0.25], radius=0.3)

    def test_inputs_untouched(self, rng):
        # the Hessenberg reduction works in place, on copies only
        X = sp.random_skew_adjoint_with_kernel(rng, 10, 2, gap=0.8, spread=4.0)
        P_A = random_skew_hermitian(rng, 10)
        W = sp.spectral_window(X, 0.3)
        kept = X.copy(), P_A.copy(), W.X.copy()
        sp.cluster_sum(X, 0.3)
        sp.conjugation_check(X, P_A, [-0.5, 0.0, 0.5], radius=0.3)
        sp.lambda_derivatives(W, P_A)
        sp.perturbation_suite([(W, P_A, P_A)], [-0.5, 0.0, 0.5])
        for a, b in zip((X, P_A, W.X), kept):
            assert np.array_equal(a, b)


class TestPerturbationSuite:
    GRID = np.linspace(-1, 1, 3)

    @pytest.mark.parametrize("dim, kernel_dim", [(3, 1), (12, 2), (25, 0), (40, 2)])
    def test_equals_separate_calls_bitwise(self, rng, dim, kernel_dim):
        X = sp.random_skew_adjoint_with_kernel(rng, dim, kernel_dim, gap=0.8, spread=4.0)
        P_A = random_skew_hermitian(rng, dim)
        W = sp.spectral_window(X, 0.3)
        got = sp.perturbation_suite([(W, P_A, 0.05 * P_A)], self.GRID)[0]
        want = (*sp.lambda_derivatives(W, P_A),
                sp.conjugation_check(X, 0.05 * P_A, self.GRID, radius=0.3))
        assert len(got) == 5
        for a, b in zip(got, want):
            assert a == b

    def test_one_reduction_and_one_walk(self, rng, monkeypatch):
        X = sp.random_skew_adjoint_with_kernel(rng, 10, 2, gap=0.8, spread=4.0)
        P_A = random_skew_hermitian(rng, 10)
        W = sp.spectral_window(X, 0.3)
        stacks = []
        reduce = sp._hessenberg

        def counted(Xs):
            stacks.append(len(Xs))
            return reduce(Xs)

        monkeypatch.setattr(sp, "_hessenberg", counted)
        sp.perturbation_suite([(W, P_A, 0.05 * P_A)], self.GRID)
        # the stencil and the grid X_s, the plus convention's matrices only;
        # the grid's s = 0 is the stencil's centre
        assert stacks == [7]

    @pytest.mark.parametrize("grid", [[0.0, 0.5], [0.5, -0.0, 0.0], [-1.0, 0.5, 1.0],
                                      [0.25, 0.75], [0.25], [0.0]])
    def test_grid_zero_shares_the_stencil_centre(self, rng, monkeypatch, grid):
        X = sp.random_skew_adjoint_with_kernel(rng, 12, 2, gap=0.8, spread=4.0)
        P_A = random_skew_hermitian(rng, 12)
        W = sp.spectral_window(X, 0.3)
        want = (*sp.lambda_derivatives(W, P_A),
                sp.conjugation_check(X, 0.05 * P_A, grid, radius=0.3))
        stacks = []
        reduce = sp._hessenberg

        def counted(Xs):
            stacks.append(len(Xs))
            return reduce(Xs)

        monkeypatch.setattr(sp, "_hessenberg", counted)
        got = sp.perturbation_suite([(W, P_A, 0.05 * P_A)], grid)[0]
        assert stacks == [5 + sum(s != 0 for s in grid)]
        for a, b in zip(got, want, strict=True):
            assert a == b

    def test_items_equal_one_item_calls(self, rng, monkeypatch):
        # items of three sizes and three radii, in runs of one size: each
        # run shares one stack, which the next size ends
        items = []
        for dim, radius in ((12, 0.3), (12, 0.25), (40, 0.3), (40, 0.35), (40, 0.3),
                            (12, 0.3), (12, 0.35), (3, 0.3)):
            X = sp.random_skew_adjoint_with_kernel(rng, dim, 2, gap=0.8, spread=4.0)
            P_A = random_skew_hermitian(rng, dim)
            items.append((sp.spectral_window(X, radius), P_A, 0.05 * P_A))
        want = [sp.perturbation_suite([item], self.GRID)[0] for item in items]
        stacks = []
        reduce = sp._hessenberg

        def counted(Xs):
            stacks.append(len(Xs))
            return reduce(Xs)

        monkeypatch.setattr(sp, "_hessenberg", counted)
        got = sp.perturbation_suite(iter(items), self.GRID)
        assert stacks == [14, 21, 14, 7]
        assert got == want

    def test_fd_equals_five_point_differences_of_cluster_sums(self, rng, monkeypatch):
        # items of two sizes, so two stacks: each item's finite differences
        # equal those of one-matrix cluster_sum calls on its stencil, bit for bit
        items = []
        for dim in (12, 25, 25, 12):
            X = sp.random_skew_adjoint_with_kernel(rng, dim, 2, gap=0.8, spread=4.0)
            P_A = random_skew_hermitian(rng, dim)
            items.append((sp.spectral_window(X, 0.3), P_A, 0.05 * P_A))
        stacks = []
        reduce = sp._hessenberg

        def counted(Xs):
            stacks.append(len(Xs))
            return reduce(Xs)

        monkeypatch.setattr(sp, "_hessenberg", counted)
        got = sp.perturbation_suite(items, self.GRID)
        assert stacks == [7, 14, 7]
        monkeypatch.setattr(sp, "_hessenberg", reduce)
        for (W, P_A, _), (_, _, dot_fd, ddot_fd, _) in zip(items, got, strict=True):
            h, stencil = sp._fd_stencil(W, np.asarray(P_A, dtype=complex))
            lm2, lm1, l0, lp1, lp2 = (sp.cluster_sum(X, W.contour_radius) for X in stencil)
            assert dot_fd == (-lp2 + 8 * lp1 - 8 * lm1 + lm2) / (12 * h)
            assert ddot_fd == (-lp2 + 16 * lp1 - 30 * l0 + 16 * lm1 - lm2) / (12 * h * h)

    def test_trace_walks_hold_the_plus_convention_only(self, rng, monkeypatch):
        X = sp.random_skew_adjoint_with_kernel(rng, 10, 2, gap=0.8, spread=4.0)
        P_A = random_skew_hermitian(rng, 10)
        W = sp.spectral_window(X, 0.3)
        stacks = []
        traces = sp._hessenberg_traces

        def counted(H, z):
            stacks.append(len(H))
            return traces(H, z)

        monkeypatch.setattr(sp, "_hessenberg_traces", counted)
        sp.perturbation_suite([(W, P_A, 0.05 * P_A)], self.GRID)
        assert 0 < max(stacks) <= 5 + len(self.GRID)
        stacks.clear()
        sp.conjugation_check(X, 0.05 * P_A, self.GRID, radius=0.3)
        assert 0 < max(stacks) <= len(self.GRID)


class TestContourThroughSpectrum:
    # -0.3 is an eigenvalue of X: X + z is singular at the node z = 0.3,
    # which both conventions walk (the minus one is the plus one of X)
    X = np.diag([0.0, -0.3])

    @pytest.mark.parametrize("call", [
        lambda X: sp.cluster_sum(X, 0.3),
        lambda X: sp.cluster_sum_minus(X, 0.3),
        lambda X: sp.conjugation_check(X, np.eye(2), [0.0], radius=0.3),
    ], ids=["plus", "minus", "conjugation"])
    def test_rejected(self, call):
        with pytest.raises(ValidationError, match="passes through the spectrum"):
            call(self.X)

    def test_rejected_at_size_40(self):
        X = np.zeros((40, 40))
        X[1, 1] = -0.3
        with pytest.raises(ValidationError, match="passes through the spectrum"):
            sp.cluster_sum_minus(X, 0.3)


class TestWindowInputs:
    @pytest.mark.parametrize("radius", [-0.3, 0.0, np.nan, np.inf])
    def test_radius_finite_positive(self, rng, radius):
        X = sp.random_skew_adjoint_with_kernel(rng, 6, 1)
        for call in (lambda: sp.spectral_window(X, radius),
                     lambda: sp.cluster_sum(X, radius),
                     lambda: sp.cluster_sum_minus(X, radius)):
            with pytest.raises(ValidationError, match="radius"):
                call()

    @pytest.mark.parametrize("X, match", [
        (np.diag([0.0, np.nan]), "finite"),
        (np.diag([0.0, np.inf]), "finite"),
        (np.zeros((2, 3)), "square"),
    ])
    def test_cluster_sum_matrix_checked(self, X, match):
        for call in (sp.cluster_sum, sp.cluster_sum_minus):
            with pytest.raises(ValidationError, match=match):
                call(X, 0.3)

    def test_empty_matrix_encloses_nothing(self):
        assert sp.cluster_sum(np.zeros((0, 0)), 0.3) == 0
        assert sp.cluster_sum_minus(np.zeros((0, 0)), 0.3) == 0

    @pytest.mark.parametrize("radius", [1.0, None])
    def test_empty_matrix_has_no_window(self, radius):
        with pytest.raises(ValidationError, match="empty"):
            sp.spectral_window(np.zeros((0, 0)), radius)

    def test_negative_kernel_dim(self, rng):
        with pytest.raises(ValidationError, match="kernel_dim"):
            sp.random_skew_adjoint_with_kernel(rng, 6, -1)
