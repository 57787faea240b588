import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cktlab import connalg as ca
from cktlab import polyharm as ph
from cktlab import symbolcheck as sc
from cktlab.connalg import TwistedHarmonic
from cktlab.errors import ValidationError
from cktlab.polyharm import HPoly
from cktlab.torus import FourierConnection

from conftest import random_hpoly, random_skew_hermitian

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_twisted(rng, n, m, fdim):
    cols = []
    basis = ph.harmonic_basis(n, m)
    for _ in range(fdim):
        coords = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        cols.append(basis.combine(coords))
    return TwistedHarmonic(n, m, tuple(cols))


def gammas(G):
    """Gamma(e_j) of a constant connection form: its mode-0 coefficients."""
    return G.coeffs[(0,) * G.n]


def reconstruction_residual(G, f, plus, minus, endo=False):
    """max coefficient of Gamma(v) f(v) - plus - |v|^2 minus."""
    n = f.n
    r2 = ph.radial_squared(n)
    prod_cols = [HPoly.zero(n, f.m + 1) for _ in range(f.fiber_dim)]
    mats = [ca.commutator_action_matrix(g) for g in gammas(G)] if endo else gammas(G)
    for j in range(n):
        vj = HPoly.variable(n, j)
        for i in range(f.fiber_dim):
            for k in range(f.fiber_dim):
                if mats[j][i, k] != 0:
                    prod_cols[i] = prod_cols[i] + vj * (f.columns[k] * mats[j][i, k])
    resid = 0.0
    for i in range(f.fiber_dim):
        expect = plus.columns[i]
        if minus.m >= 0:
            expect = expect + r2 * minus.columns[i]
        resid = max(resid, (prod_cols[i] - expect).max_abs_coeff())
    return resid


# a connection form on C^2 over the 3-torus with a nonzero mode: no value at one point
CURVED = FourierConnection.cosine_mode(3, (0, 1, 0), 0, 1j * SIGMA_Z)
VEC = TwistedHarmonic(3, 1, (HPoly.variable(3, 0), HPoly.variable(3, 1)))
# v_1 i sigma_y: trace-free and skew-Hermitian on the fiber
END = TwistedHarmonic.from_matrix_entries(
    3, 1, [[HPoly.variable(3, 0) * (1j * SIGMA_Y[i, j]) for j in range(2)] for i in range(2)])
XI = np.array([0.0, 0.0, 1.0])


def _returned_form(solve, split, u):
    """The constant form a constructor returns, plus the given connection,
    through the split that checks the construction."""

    def call(extra):
        G, w = solve(u)[:2]
        assert set(G.coeffs) == {(0, 0, 0)}
        return split(G.plus(extra), w)

    return call


# each takes a connection form; the two constructors add it to the form they return
TAKES_A_FORM = {
    "gamma_split": lambda G: ca.gamma_split(G, VEC),
    "endo_split": lambda G: ca.endo_split(G, END),
    "gamma_minus_matrix": lambda G: ca.gamma_minus_matrix(G, 3, 2),
    "fiber_symbol_pairing": lambda G: sc.fiber_symbol_pairing(G, END, END, XI, nq=64),
}
ENTRY_POINTS = {
    **TAKES_A_FORM,
    "solve_gamma_preimage": _returned_form(ca.solve_gamma_preimage, ca.gamma_split, VEC),
    "endo_pairing_witness": _returned_form(lambda u: ca.endo_pairing_witness(u, 2),
                                           ca.endo_split, END),
}


class TestConstantForms:
    """A connection form is a FourierConnection whose only mode is 0."""

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_nonzero_mode_rejected(self, name):
        ENTRY_POINTS[name](FourierConnection.zero(r=2, n=3))
        with pytest.raises(ValidationError, match="constant"):
            ENTRY_POINTS[name](CURVED)

    @pytest.mark.parametrize("build", [lambda: FourierConnection({}, r=2),
                                       lambda: FourierConnection({}, n=3)],
                             ids=["no-n", "no-r"])
    @pytest.mark.parametrize("name", sorted(TAKES_A_FORM))
    def test_undetermined_form_rejected(self, name, build):
        # each entry point used to refuse such a form itself; now none can
        # receive one, as the constructor refuses it
        with pytest.raises(ValidationError, match="needs its .* as an int >= 1, got None"):
            TAKES_A_FORM[name](build())

    @pytest.mark.parametrize("split, element", [(ca.gamma_split, VEC), (ca.endo_split, END)],
                             ids=["gamma_split", "endo_split"])
    @pytest.mark.parametrize("r, n, message", [
        (2, 2, "must share n"),
        (3, 3, "fiber mismatch"),
    ], ids=["other-n", "other-fiber"])
    def test_split_guard(self, split, element, r, n, message):
        # both splits share one guard; VEC has fiber 2 = r, END fiber 4 = r^2 at r = 2
        split(FourierConnection.zero(r=2, n=3), element)
        with pytest.raises(ValidationError, match=message):
            split(FourierConnection.zero(r=r, n=n), element)

    def test_zero_form_has_full_nullity(self):
        rep = ca.gamma_minus_matrix(FourierConnection.zero(r=2, n=3), 3, 2)
        assert rep.rank == 0 and rep.nullity == 2 * ph.dims(3, 2)[1]


class TestGammaSplit:
    def test_v1_against_closed_form(self):
        G = FourierConnection.cosine_mode(3, (0, 0, 0), 0, 1j * np.eye(1))
        f = TwistedHarmonic(3, 1, (HPoly.variable(3, 0),))
        plus, minus = ca.gamma_split(G, f)
        assert ph.bombieri_norm(minus.columns[0] - HPoly.constant(3, 1j / 3)) < 1e-14
        expected_plus = (HPoly.monomial(3, (2, 0, 0)) - ph.radial_squared(3) / 3) * 1j
        assert ph.bombieri_norm(plus.columns[0] - expected_plus) < 1e-14

    def test_orthogonal_gradient(self):
        G = FourierConnection.cosine_mode(3, (0, 0, 0), 0, 1j * np.eye(1))
        f = TwistedHarmonic(3, 1, (HPoly.variable(3, 1),))
        plus, minus = ca.gamma_split(G, f)
        assert minus.columns[0].is_zero()
        expected = HPoly(3, 2, {(1, 1, 0): 1j})
        assert ph.bombieri_norm(plus.columns[0] - expected) < 1e-14

    def test_columnwise_fiber(self):
        G = FourierConnection.cosine_mode(3, (0, 0, 0), 0, 1j * SIGMA_Z)
        f = TwistedHarmonic(3, 1, (HPoly.variable(3, 1), HPoly.zero(3, 1)))
        plus, minus = ca.gamma_split(G, f)
        assert all(c.is_zero() for c in minus.columns)
        assert ph.bombieri_norm(plus.columns[0] - HPoly(3, 2, {(1, 1, 0): 1j})) < 1e-14
        assert plus.columns[1].is_zero()

    def test_m0_degenerate(self):
        G = FourierConnection.cosine_mode(2, (0, 0), 0, 1j * np.eye(1))
        f = TwistedHarmonic(2, 0, (HPoly.constant(2, 1.0),))
        plus, minus = ca.gamma_split(G, f)
        assert minus.m == -1
        assert ph.bombieri_norm(plus.columns[0] - HPoly.variable(2, 0, 1j)) < 1e-14

    def test_exactness_random(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(0, 5))
            r = int(rng.integers(1, 4))
            G = FourierConnection.constant(
                n, [random_skew_hermitian(rng, r) for _ in range(n)]
            )
            f = random_twisted(rng, n, m, r)
            plus, minus = ca.gamma_split(G, f)
            scale = max(c.max_abs_coeff() for c in f.columns) * max(
                np.abs(g).max() for g in gammas(G)
            )
            assert reconstruction_residual(G, f, plus, minus) <= 1e-12 * max(1.0, scale)
            for c in plus.columns:
                assert ph.bombieri_norm(ph.laplace(c)) <= 1e-11 * max(1.0, scale)

    def test_fiber_adjointness_sign(self, rng):
        # <(Gamma u)_plus, w> + <u, (Gamma w)_minus> = 0 on the sphere for
        # skew-Hermitian Gamma
        for _ in range(20):
            n, m, r = 3, 2, 2
            G = FourierConnection.constant(
                n, [random_skew_hermitian(rng, r) for _ in range(n)]
            )
            u = random_twisted(rng, n, m, r)
            w = random_twisted(rng, n, m + 1, r)
            lhs = ca.twisted_sphere_inner(ca.gamma_split(G, u)[0], w)
            rhs = ca.twisted_sphere_inner(u, ca.gamma_split(G, w)[1])
            assert abs(lhs + rhs) < 1e-10 * max(1.0, abs(lhs))


class TestHarmonicMultBlocks:
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_columns_match_gamma_split(self, n, m):
        # oracle: the exact HPoly split of v_j u for each basis member u,
        # expanded with the dict-loop sphere_inner and, independently,
        # rebuilt from the block column with combine
        plus, minus = ca.harmonic_mult_blocks(n, m)
        bm = ph.harmonic_basis(n, m)
        bp = ph.harmonic_basis(n, m + 1)
        bl = ph.harmonic_basis(n, m - 1) if m else None
        # sphere_inner at (4, 4) costs ~10 s of Python loops for the 100
        # columns; there the reconstruction alone checks them
        by_inner = (n, m) != (4, 4)
        for j in range(n):
            # the form i e_j, whose split is i times that of v_j u, exactly
            G = FourierConnection.constant(n, [1j * np.eye(1) * (i == j) for i in range(n)])
            assert minus[j].shape == (len(bl) if m else 0, len(bm))
            for a, u in enumerate(bm.members):
                hi, lo = (t.columns[0] * -1j
                          for t in ca.gamma_split(G, TwistedHarmonic(n, m, (u,))))
                assert (bp.combine(plus[j][:, a]) - hi).max_abs_coeff() <= 1e-12
                if by_inner:
                    want = [ph.sphere_inner(hi, b) for b in bp.members]
                    assert np.abs(plus[j][:, a] - want).max() <= 1e-12
                if not m:
                    continue
                assert (bl.combine(minus[j][:, a]) - lo).max_abs_coeff() <= 1e-12
                if by_inner:
                    want = [ph.sphere_inner(lo, b) for b in bl.members]
                    assert np.abs(minus[j][:, a] - want).max() <= 1e-12


class TestGammaMinusMatrix:
    def test_n3_m2_rank(self):
        G = FourierConnection.constant(3, [1j * np.eye(1), np.zeros((1, 1)), np.zeros((1, 1))])
        rep = ca.gamma_minus_matrix(G, 3, 2)
        assert rep.rank == 3 and rep.nullity == 2

    def test_n3_m1(self):
        G = FourierConnection.constant(3, [1j * np.eye(1), np.zeros((1, 1)), np.zeros((1, 1))])
        rep = ca.gamma_minus_matrix(G, 3, 1)
        assert rep.rank == 1 and rep.nullity == 2

    def test_zero_form(self):
        rep = ca.gamma_minus_matrix(FourierConnection.zero(r=2, n=3), 3, 2)
        assert rep.rank == 0

    @pytest.mark.parametrize("n", [3, 4])
    def test_surjectivity_dimension_chain(self, n):
        # rank = h(n, m) - h(n-1, m) = h(n, m-1) for a single real direction
        for m in range(1, 5):
            G = FourierConnection.cosine_mode(n, (0,) * n, 0, 1j * np.eye(1))
            rep = ca.gamma_minus_matrix(G, n, m)
            h_m = ph.dims(n, m)[1]
            h_mm1 = ph.dims(n, m - 1)[1]
            h_sub = ph.dims(n - 1, m)[1]
            assert rep.rank == h_mm1
            assert rep.rank == h_m - h_sub
            assert rep.nullity == h_sub


class TestSolveGammaPreimage:
    def test_constant_target(self):
        u = TwistedHarmonic(3, 0, (HPoly.constant(3, 1.0), HPoly.zero(3, 0)))
        G, w = ca.solve_gamma_preimage(u)
        minus = ca.gamma_split(G, w)[1]
        assert (minus - u).norm_bombieri() < 1e-9 * max(1.0, u.norm_bombieri())

    def test_linear_target(self):
        u = TwistedHarmonic(3, 1, (HPoly.zero(3, 1), HPoly.variable(3, 1)))
        G, w = ca.solve_gamma_preimage(u)
        minus = ca.gamma_split(G, w)[1]
        assert (minus - u).norm_bombieri() < 1e-9 * u.norm_bombieri()

    def test_zero_target(self):
        u = TwistedHarmonic.zero(3, 1, 2)
        G, w = ca.solve_gamma_preimage(u)
        assert w.norm_bombieri() == 0

    def test_random_targets(self, rng):
        for _ in range(50):
            n = 3 if rng.integers(2) else 4
            m = int(rng.integers(0, 3))
            r = int(rng.integers(1, 4))
            u = random_twisted(rng, n, m, r)
            G, w = ca.solve_gamma_preimage(u)
            assert all(ca.is_skew_hermitian(g) for g in gammas(G))
            minus = ca.gamma_split(G, w)[1]
            assert (minus - u).norm_bombieri() < 1e-9 * u.norm_bombieri()

    def test_n2_unsupported(self):
        u = TwistedHarmonic(2, 1, (HPoly.variable(2, 0),))
        with pytest.raises(ValidationError):
            ca.solve_gamma_preimage(u)


@st.composite
def tracefree_hermitian(draw):
    """A trace-free Hermitian H of size r <= 6, Q diag(lam) Q^H with lam less
    its mean, whose top and bottom eigenvalues may each be repeated; Q is
    the identity or a random unitary.  A nonzero trace-free H is indefinite,
    and lam is kept only when it is, by more than 1e-150 at either end:
    rounding of the mean can leave equal draws a definite multiple of eps
    times I, and eps |H| must not underflow."""
    r = draw(st.integers(2, 6))
    lam = np.sort(draw(st.lists(st.floats(-1, 1), min_size=r, max_size=r)))
    top = draw(st.integers(1, r - 1))
    lam[r - top:], lam[:draw(st.integers(1, r - top))] = lam[-1], lam[0]
    lam -= lam.mean()
    assume(min(-lam[0], lam[-1]) > 1e-150)
    H = np.diag(lam).astype(complex)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        Q, _ = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
        H = Q @ H @ Q.conj().T
        H = (H + H.conj().T) / 2
    return H


class TestCommutatorFactor:
    @settings(max_examples=200, deadline=None)
    @given(tracefree_hermitian())
    def test_isotropic_vector_in_closed_form(self, H):
        r = len(H)
        x0 = ca._isotropic_vector(H)
        assert np.linalg.norm(x0) == pytest.approx(1.0, rel=1e-15)
        form = abs(x0.conj() @ H @ x0)
        assert form <= 10 * r * np.finfo(float).eps * np.linalg.norm(H, 2)
        A, G = ca.commutator_factor(1j * H)
        assert np.abs(A @ G - G @ A - 1j * H).max() <= 1e-12

    def test_trivial(self):
        A, G = ca.commutator_factor(np.zeros((1, 1)))
        assert A.shape == (1, 1) and np.abs(A).max() == 0

    def test_pauli_diag(self):
        u = 1j * np.diag([1.0, -1.0])
        A, G = ca.commutator_factor(u)
        assert np.abs(A @ G - G @ A - u).max() < 1e-9
        assert ca.is_skew_hermitian(A, 1e-9) and ca.is_skew_hermitian(G, 1e-9)

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_random_bulk(self, r, rng):
        for _ in range(100):
            u = random_skew_hermitian(rng, r, tracefree=True)
            A, G = ca.commutator_factor(u)
            resid = np.abs(A @ G - G @ A - u).max()
            assert resid <= 1e-9 * (1 + np.linalg.norm(u))
            assert ca.is_skew_hermitian(A, 1e-9)
            assert ca.is_skew_hermitian(G, 1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            ca.commutator_factor(np.eye(2))  # Hermitian, not skew
        with pytest.raises(ValidationError):
            ca.commutator_factor(1j * np.eye(2))  # skew but not trace-free

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf)])
    def test_rejects_non_finite_input(self, bad):
        # a nan entry used to pass the inline skew test and return nan factors
        with pytest.raises(ValidationError, match="skew-Hermitian"):
            ca.commutator_factor(np.array([[bad, 0], [0, 0]]))

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValidationError):
            ca.commutator_factor(np.zeros((0, 0)))


class TestEndoSplit:
    def test_closed_formula_rank_one(self):
        # A = i sigma_z e_1*, u = v_1 sigma_x: lowering = [i sigma_z, sigma_x]/n
        A = FourierConnection.cosine_mode(3, (0, 0, 0), 0, 1j * SIGMA_Z)
        entries = [[HPoly.variable(3, 0) * SIGMA_X[i, j] for j in range(2)] for i in range(2)]
        u = TwistedHarmonic.from_matrix_entries(3, 1, entries)
        plus, minus = ca.endo_split(A, u)
        bracket = 1j * (SIGMA_Z @ SIGMA_X - SIGMA_X @ SIGMA_Z)  # = -2 sigma_y... times i
        for i in range(2):
            for j in range(2):
                expect = HPoly.constant(3, bracket[i, j] / 3)
                assert ph.bombieri_norm(minus.entry(i, j, 2) - expect) < 1e-13

    def test_identity_commutes(self, rng):
        A = FourierConnection.constant(
            3, [random_skew_hermitian(rng, 2) for _ in range(3)]
        )
        p = random_hpoly(rng, 3, 0)
        entries = [[p * np.eye(2)[i, j] for j in range(2)] for i in range(2)]
        u = TwistedHarmonic.from_matrix_entries(3, 0, entries)
        plus, minus = ca.endo_split(A, u)
        assert all(c.is_zero(1e-15) for c in plus.columns)

    def test_reconstruction_random(self, rng):
        for _ in range(30):
            n, m, r = 3, int(rng.integers(0, 4)), 2
            A = FourierConnection.constant(
                n, [random_skew_hermitian(rng, r) for _ in range(n)]
            )
            u = random_twisted(rng, n, m, r * r)
            plus, minus = ca.endo_split(A, u)
            scale = max(1.0, max(c.max_abs_coeff() for c in u.columns))
            assert reconstruction_residual(A, u, plus, minus, endo=True) <= 1e-12 * scale


class TestTraceAdjoint:
    def test_trace_of_identity_multiple(self, rng):
        p = random_hpoly(rng, 3, 2)
        # harmonic part only
        p = ph.harmonic_decompose(p)[0][1]
        r = 3
        entries = [[p * (1.0 if i == j else 0.0) for j in range(r)] for i in range(r)]
        u = TwistedHarmonic.from_matrix_entries(3, 2, entries)
        assert ph.bombieri_norm(ca.trace_end(u, r) - p * r) < 1e-12

    def test_trace_kills_commutator_action(self, rng):
        r = 3
        A = FourierConnection.constant(
            3, [random_skew_hermitian(rng, r) for _ in range(3)]
        )
        u = random_twisted(rng, 3, 2, r * r)
        plus, minus = ca.endo_split(A, u)
        assert ph.bombieri_norm(ca.trace_end(plus, r)) < 1e-12
        assert ph.bombieri_norm(ca.trace_end(minus, r)) < 1e-12

    def test_adjoint_involution(self, rng):
        u = random_twisted(rng, 3, 2, 4)
        again = ca.adjoint_end(ca.adjoint_end(u, 2), 2)
        assert (again - u).norm_bombieri() < 1e-14

    def test_adjoint_commutes_with_split(self, rng):
        r = 2
        A = FourierConnection.constant(
            3, [random_skew_hermitian(rng, r) for _ in range(3)]
        )
        u = random_twisted(rng, 3, 2, r * r)
        plus_u, minus_u = ca.endo_split(A, u)
        plus_a, minus_a = ca.endo_split(A, ca.adjoint_end(u, r))
        assert (ca.adjoint_end(plus_u, r) - plus_a).norm_bombieri() < 1e-11
        assert (ca.adjoint_end(minus_u, r) - minus_a).norm_bombieri() < 1e-11


class TestCommutatorActionMatrix:
    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_stack_equals_kron_bitwise(self, rng, r):
        # a (G, r, r) stack, and one matrix, against kron(A, 1) - kron(1, A^T)
        # per frame: the same products and differences, so the same bits
        A = rng.standard_normal((4, r, r)) + 1j * rng.standard_normal((4, r, r))
        A[0, 0, 0] = -0.0
        eye = np.eye(r)
        stack = ca.commutator_action_matrix(A)
        assert stack.shape == (4, r * r, r * r)
        for g, M in enumerate(A):
            want = np.kron(M, eye) - np.kron(eye, M.T)
            got = ca.commutator_action_matrix(M)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert stack[g].tobytes() == want.tobytes()


class TestSkewBasis:
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_orthonormal_tracefree_skew(self, r):
        basis = ca.skew_hermitian_basis(r)
        assert len(basis) == r * r - 1
        for i, a in enumerate(basis):
            assert ca.is_skew_hermitian(a)
            assert abs(np.trace(a)) < 1e-14
            for j, b in enumerate(basis):
                ip = np.trace(a @ b.conj().T)
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-13


class TestPairingWitness:
    def test_single_component(self):
        basis = ca.skew_hermitian_basis(2)
        s = basis[-1]  # the diagonal generator, proportional to i sigma_z
        p = HPoly.variable(3, 0)
        u = TwistedHarmonic(3, 1, tuple(p * s[i, j] for i in range(2) for j in range(2)))
        A, w, pairing = ca.endo_pairing_witness(u, 2)
        assert pairing == pytest.approx(abs(ph.bombieri_inner(p, p)), rel=1e-8)

    def test_picks_largest_component(self, rng):
        basis = ca.skew_hermitian_basis(2)
        p_small = HPoly.variable(3, 1) * 0.1
        p_big = HPoly.variable(3, 0) * 2.0
        entries = {}
        u_cols = []
        for i in range(2):
            for j in range(2):
                u_cols.append(p_small * basis[0][i, j] + p_big * basis[1][i, j])
        u = TwistedHarmonic(3, 1, tuple(u_cols))
        A, w, pairing = ca.endo_pairing_witness(u, 2)
        assert pairing == pytest.approx(abs(ph.bombieri_inner(p_big, p_big)), rel=1e-8)

    def test_zero_errors(self):
        with pytest.raises(ValidationError):
            ca.endo_pairing_witness(TwistedHarmonic.zero(3, 1, 4), 2)

    def test_random_bulk(self, rng):
        for _ in range(50):
            n = 3
            m = int(rng.integers(0, 3))
            r = int(rng.integers(2, 4))
            basis = ca.skew_hermitian_basis(r)
            hb = ph.harmonic_basis(n, m)
            # su(r)-valued sections need real coefficients over the skew basis
            comps = [hb.combine(rng.standard_normal(len(hb))) for _ in basis]
            cols = []
            for i in range(r):
                for j in range(r):
                    acc = HPoly.zero(n, m)
                    for p, s in zip(comps, basis):
                        acc = acc + p * s[i, j]
                    cols.append(acc)
            u = TwistedHarmonic(n, m, tuple(cols))
            A, w, pairing = ca.endo_pairing_witness(u, r)
            expected = max(abs(ph.bombieri_inner(p, p)) for p in comps)
            assert pairing == pytest.approx(expected, rel=1e-8)
            assert pairing > 0
