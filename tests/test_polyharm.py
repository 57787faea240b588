import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cktlab import polyharm as ph
from cktlab.errors import ConvergenceError, ValidationError
from cktlab.polyharm import HPoly

from conftest import random_hpoly


def v(j, n=3):
    return HPoly.variable(n, j)


class TestDims:
    @pytest.mark.parametrize(
        "n,m,p,h",
        [(3, 0, 1, 1), (3, 1, 3, 3), (3, 2, 6, 5), (2, 4, 5, 2), (4, 3, 20, 16)],
    )
    def test_known_values(self, n, m, p, h):
        assert ph.dims(n, m) == (p, h)

    def test_matches_bruteforce_nullity(self):
        for n in (2, 3, 4):
            for m in range(7):
                assert ph.dims(n, m)[1] == ph.harmonic_nullity_bruteforce(n, m)

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            ph.dims(1, 2)
        with pytest.raises(ValidationError):
            ph.dims(3, -1)


class TestApplyDiff:
    def test_second_derivative_scalar(self):
        P = HPoly.monomial(3, (2, 0, 0))
        assert ph.apply_diff(P, P) == 2

    def test_single_derivative(self):
        P = v(0)
        Q = v(0) * v(1)
        assert ph.apply_diff(P, Q) == v(1)

    def test_radial_acts_as_laplacian_on_harmonics(self):
        r2 = ph.radial_squared(3)
        for u in ph.harmonic_basis(3, 3).members:
            res = ph.apply_diff(r2, u)
            assert res.max_abs_coeff() < 1e-12

    def test_degree_mismatch(self):
        with pytest.raises(ValidationError):
            ph.apply_diff(v(0) * v(0), v(1))

    def test_composition(self, rng):
        P = random_hpoly(rng, 3, 1)
        R = random_hpoly(rng, 3, 2)
        Q = random_hpoly(rng, 3, 5)
        lhs = ph.apply_diff(P * R, Q)
        rhs = ph.apply_diff(P, ph.apply_diff(R, Q))
        assert ph.bombieri_norm(lhs - rhs) < 1e-10 * ph.bombieri_norm(lhs)


class TestBombieri:
    def test_known_values(self):
        assert ph.bombieri_inner(v(0) * v(0), v(0) * v(0)) == 2
        assert ph.bombieri_inner(v(0) * v(1), v(0) * v(1)) == 1
        assert ph.bombieri_inner(v(0) * v(0), v(1) * v(1)) == 0

    def test_matches_differentiation_route(self, rng):
        # <P, Q> is defined as the P-derivative operator applied to conj Q
        for _ in range(20):
            P = random_hpoly(rng, 3, 3)
            Q = random_hpoly(rng, 3, 3)
            assert ph.bombieri_inner(P, Q) == pytest.approx(
                complex(ph.apply_diff(P, Q.conj())), rel=1e-12
            )

    def test_positive_definite(self, rng):
        P = random_hpoly(rng, 4, 4)
        assert ph.bombieri_inner(P, P).imag == pytest.approx(0, abs=1e-12)
        assert ph.bombieri_inner(P, P).real > 0


@st.composite
def integer_hpoly(draw, n, m, max_terms=4):
    mono = ph.monomials(n, m)
    k = draw(st.integers(1, max_terms))
    coeffs = {}
    for _ in range(k):
        a = mono[draw(st.integers(0, len(mono) - 1))]
        coeffs[a] = coeffs.get(a, 0) + draw(st.integers(-5, 5))
    return HPoly(n, m, coeffs)


class TestAdjointness:
    @settings(max_examples=60, deadline=None)
    @given(integer_hpoly(3, 2), integer_hpoly(3, 1), integer_hpoly(3, 3))
    def test_multiplication_adjoint_exact(self, R, Q, P):
        # multiplication by R is adjoint to applying the conj(R) derivative
        lhs = ph.bombieri_inner(R * Q, P)
        rhs = ph.bombieri_inner(Q, ph.apply_diff(R.conj(), P))
        assert lhs == rhs

    def test_multiplication_adjoint_random(self, rng):
        for _ in range(30):
            R = random_hpoly(rng, 3, 2)
            Q = random_hpoly(rng, 3, 2)
            P = random_hpoly(rng, 3, 4)
            lhs = ph.bombieri_inner(R * Q, P)
            rhs = ph.bombieri_inner(Q, ph.apply_diff(R.conj(), P))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_laplacian_adjoint_to_radial(self, rng):
        r2 = ph.radial_squared(3)
        for _ in range(30):
            P = random_hpoly(rng, 3, 2)
            Q = random_hpoly(rng, 3, 4)
            lhs = ph.bombieri_inner(r2 * P, Q)
            rhs = ph.bombieri_inner(P, ph.laplace(Q))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


class TestLaplace:
    def test_harmonic_difference(self):
        P = v(0) * v(0) - v(1) * v(1)
        assert ph.laplace(P).is_zero()

    def test_radial(self):
        assert ph.laplace(ph.radial_squared(3)) == HPoly.constant(3, 6)

    def test_cube(self):
        assert ph.laplace(v(0) * v(0) * v(0)) == v(0) * 6


class TestHarmonicDecompose:
    def test_frozen_v1_squared(self):
        parts = ph.harmonic_decompose(HPoly.monomial(3, (2, 0, 0)))
        assert [k for k, _ in parts] == [0, 1]
        h0, h1 = parts[0][1], parts[1][1]
        expected = HPoly(
            3, 2, {(2, 0, 0): Fraction(2, 3), (0, 2, 0): Fraction(-1, 3), (0, 0, 2): Fraction(-1, 3)}
        )
        assert ph.bombieri_norm(h0 - expected) < 1e-15
        assert abs(h1.coeffs[(0, 0, 0)] - Fraction(1, 3)) < 1e-15

    def test_already_harmonic(self):
        P = v(0) * v(1)
        assert ph.harmonic_decompose(P) == [(0, P)]

    def test_purely_radial(self):
        parts = ph.harmonic_decompose(ph.radial_squared(3))
        assert parts == [(1, HPoly.constant(3, 1))]

    def test_exact_in_rational_mode(self):
        coeffs = {a: Fraction(hash(a) % 17 - 8, 3) for a in ph.monomials(3, 4)}
        P = HPoly(3, 4, coeffs)
        parts = ph.harmonic_decompose(P)
        r2 = ph.radial_squared(3)
        rec = HPoly.zero(3, 4)
        for k, h in parts:
            term = h
            for _ in range(k):
                term = term * r2
            rec = rec + term
        assert rec == P  # exact Fraction equality
        for _, h in parts:
            assert ph.laplace(h).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(ph.monomials(3, 4)),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
        min_size=1, max_size=8))
    def test_exact_reconstruction_property(self, coeffs):
        # with rational coefficients the peel constants divide exactly, so
        # reconstruction is exact equality, not an approximation
        P = HPoly(3, 4, coeffs)
        parts = ph.harmonic_decompose(P)
        r2 = ph.radial_squared(3)
        rec = HPoly.zero(3, 4)
        for k, h in parts:
            assert ph.laplace(h).is_zero()
            term = h
            for _ in range(k):
                term = term * r2
            rec = rec + term
        assert rec == P

    def test_roundtrip_random(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(0, 7))
            P = random_hpoly(rng, n, m)
            parts = ph.harmonic_decompose(P)
            assert len(parts) <= m // 2 + 1
            r2 = ph.radial_squared(n)
            rec = HPoly.zero(n, m)
            for k, h in parts:
                assert ph.bombieri_norm(ph.laplace(h)) <= 1e-12 * max(1.0, ph.bombieri_norm(h))
                term = h
                for _ in range(k):
                    term = term * r2
                rec = rec + term
            assert ph.bombieri_norm(rec - P) <= 1e-12 * ph.bombieri_norm(P)


class TestSphereMoments:
    def test_area(self):
        assert ph.sphere_monomial_moment((0, 0, 0), 3) == pytest.approx(4 * math.pi, rel=1e-13)

    def test_v1_squared_moment(self):
        # the three exponent-2 moments are equal and sum to the area
        assert ph.sphere_monomial_moment((2, 0, 0), 3) == pytest.approx(
            4 * math.pi / 3, rel=1e-13
        )

    def test_odd_vanishes(self):
        assert ph.sphere_monomial_moment((1, 0), 2) == 0.0

    def test_monte_carlo(self, rng):
        # 3-sigma agreement with a Monte-Carlo estimate
        N = 200_000
        pts = rng.standard_normal((N, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        for alpha in [(2, 0, 0), (2, 2, 0), (4, 0, 0), (0, 2, 4)]:
            vals = np.prod(pts ** np.array(alpha), axis=1)
            est = vals.mean() * 4 * math.pi
            se = vals.std(ddof=1) / math.sqrt(N) * 4 * math.pi
            assert abs(ph.sphere_monomial_moment(alpha, 3) - est) < 3 * se


class TestSphereInner:
    def test_constants(self):
        one = HPoly.constant(3, 1)
        assert ph.sphere_inner(one, one) == pytest.approx(4 * math.pi, rel=1e-13)

    def test_odd_cross_moment(self):
        assert ph.sphere_inner(v(0), v(1)) == 0

    def test_distinct_degree_harmonics_orthogonal(self):
        h2 = HPoly(3, 2, {(2, 0, 0): 1, (0, 2, 0): -1 / 3, (0, 0, 2): -1 / 3})
        h2 = h2 - ph.radial_squared(3) * (1 / 3)
        # v1^2 - |v|^2/3 against the constant 1
        u = HPoly.monomial(3, (2, 0, 0)) - ph.radial_squared(3) / 3
        assert abs(ph.sphere_inner(u, HPoly.constant(3, 1))) < 1e-14


class TestHarmonicBasis:
    def test_n2_m1_spans_linear_forms(self):
        b = ph.harmonic_basis(2, 1)
        assert len(b) == 2
        M = np.array([[m.coeffs.get((1, 0), 0), m.coeffs.get((0, 1), 0)] for m in b.members])
        assert np.linalg.matrix_rank(M) == 2

    @pytest.mark.parametrize("n,m,h", [(3, 2, 5), (4, 3, 16)])
    def test_counts(self, n, m, h):
        assert len(ph.harmonic_basis(n, m)) == h

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 4), (4, 3)])
    def test_orthonormal_and_harmonic(self, n, m):
        b = ph.harmonic_basis(n, m)
        G = np.array([[ph.sphere_inner(u, w) for w in b.members] for u in b.members])
        assert np.abs(G - np.eye(len(b))).max() < 1e-10
        for u in b.members:
            assert ph.bombieri_norm(ph.laplace(u)) < 1e-12

    @pytest.mark.parametrize("n,m", [(2, 4), (3, 3), (4, 2)])
    def test_sphere_eigenvalue_relation_sampled(self, n, m, rng):
        # For homogeneous u, the radial identity turns the spherical Laplacian
        # eigenvalue relation into laplace(u) = 0 plus Euler homogeneity,
        # both checked pointwise at sampled sphere points.
        pts = rng.standard_normal((50, n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        for u in ph.harmonic_basis(n, m).members:
            uv = u.eval(pts)
            lap = ph.laplace(u).eval(pts)
            euler = np.zeros_like(uv)
            for j in range(n):
                euler += pts[:, j] * u.deriv(j).eval(pts)
            assert np.abs(lap).max() < 1e-8
            assert np.abs(euler - m * uv).max() < 1e-8
            # hence Delta_sphere(u|_S) = -m(m+n-2) u|_S via the radial identity

    @pytest.mark.parametrize("n,m", [(2, 4), (3, 3), (4, 2)])
    def test_matrix_and_polynomial_forms_agree(self, n, m, rng):
        b = ph.harmonic_basis(n, m)
        pts = rng.standard_normal((20, n))
        want = np.column_stack([u.eval(pts) for u in b.members])
        assert np.abs(b.eval_members(pts) - want).max() <= 1e-13 * np.abs(want).max()
        coords = rng.standard_normal(len(b)) + 1j * rng.standard_normal(len(b))
        total = HPoly.zero(n, m)
        for c, u in zip(coords, b.members):
            total = total + u * c
        assert (b.combine(coords) - total).max_abs_coeff() <= 1e-13

    @pytest.mark.parametrize("n,m", [(3, 20), (4, 12)])
    def test_records_orthonormality_residual(self, n, m):
        b = ph.harmonic_basis(n, m)
        G = ph._moment_gram(n, m)
        assert b.orthonormality_residual == np.abs(b.Q.T @ G @ b.Q - np.eye(len(b))).max()
        assert b.orthonormality_residual <= 1e-11

    @pytest.mark.parametrize("n,m", [(3, 20), (4, 12)])
    def test_records_harmonicity_residual(self, n, m):
        b = ph.harmonic_basis(n, m)
        L = ph._laplacian_constraint_matrix(n, m)
        want = np.abs(L @ b.Q).max() / (np.abs(L).max() * np.abs(b.Q).max())
        assert b.harmonicity_residual == want
        assert b.harmonicity_residual <= 1e-14
        assert ph.harmonic_basis(n, 1).harmonicity_residual == 0.0

    @pytest.mark.parametrize("n,m", [(3, 36), (2, 60)])
    def test_past_the_degree_ceiling_raises(self, n, m):
        # (3, 36): Q^T G Q is 1.5e-7 from the identity; (2, 60): the
        # Cholesky factorization of the floating-point Gram fails
        with pytest.raises(ConvergenceError):
            ph.harmonic_basis(n, m)

    def test_n2_ceiling_reports_its_residual(self):
        # the n = 2 ceiling is not monotone: (2, 31) and (2, 32) miss the
        # bound at 1.1e-9 and 2.5e-9, (2, 33) meets it at 8.6e-10
        with pytest.raises(ConvergenceError,
                           match=r"\(n=2, m=31\) harmonic basis orthonormal to [\d.]+e-\d+ > 1e-9"):
            ph.harmonic_basis(2, 31)


class TestMomentGram:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_moment_loop_exactly(self, n):
        for m in range(7):
            mono = ph.monomials(n, m)
            want = np.array([[ph.sphere_monomial_moment(tuple(x + y for x, y in zip(a, b)), n)
                              for b in mono] for a in mono])
            assert (ph._moment_gram(n, m) == want).all()


SMALL = [(n, m) for n in (2, 3, 4) for m in range(5)]


class TestCoordinateMatrices:
    """The cached coordinate matrices against the HPoly oracle, column by column."""

    @staticmethod
    def columns(n, m):
        return enumerate(HPoly.monomial(n, a) for a in ph.monomials(n, m))

    @pytest.mark.parametrize("n,m", SMALL)
    def test_multiplication(self, n, m):
        S = ph._neighbour_stack(n, m, 1, lambda e: 1.0)
        for c, P in self.columns(n, m):
            for j in range(n):
                assert np.array_equal(S[j][:, c], (HPoly.variable(n, j) * P).coords())

    @pytest.mark.parametrize("n,m", SMALL)
    def test_derivative(self, n, m):
        D = ph._diff_matrices(n, m)
        for c, P in self.columns(n, m):
            for j in range(n):
                assert np.array_equal(D[j][:, c], P.deriv(j).coords())

    @pytest.mark.parametrize("n,m", SMALL)
    def test_radial(self, n, m):
        R = ph._radial_rows(n, m, np.eye(len(ph.monomials(n, m))))
        for c, P in self.columns(n, m):
            assert np.array_equal(R[:, c], (ph.radial_squared(n) * P).coords())

    @pytest.mark.parametrize("n,m", SMALL)
    def test_laplacian_constraint(self, n, m):
        L = ph._laplacian_constraint_matrix(n, m)
        for c, P in self.columns(n, m):
            assert np.array_equal(L[:, c], ph.laplace(P).coords())


class TestExpand:
    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 5), (4, 3)])
    def test_matches_sphere_inner_on_non_harmonic(self, n, m, rng):
        b = ph.harmonic_basis(n, m)
        P = random_hpoly(rng, n, m)
        assert ph.laplace(P).max_abs_coeff() > 1
        want = np.array([ph.sphere_inner(P, u) for u in b.members])
        assert np.abs(b.expand(P) - want).max() <= 1e-12 * np.abs(want).max()

    def test_rejects_other_slot(self, rng):
        b = ph.harmonic_basis(3, 2)
        with pytest.raises(ValidationError):
            b.expand(random_hpoly(rng, 3, 3))
        with pytest.raises(ValidationError):
            b.expand(random_hpoly(rng, 4, 2))


class TestDegreeConstants:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sphere_vs_differentiation_constant(self, n):
        # the two invariant inner products on the harmonics of degree m are
        # proportional; only constancy across a basis is asserted, the value
        # is degree-dependent and not pinned
        for m in range(4):
            ratios = []
            b = ph.harmonic_basis(n, m)
            for u in b.members:
                ratios.append(
                    abs(ph.sphere_inner(u, u)) / abs(ph.bombieri_inner(u, u))
                )
            spread = (max(ratios) - min(ratios)) / max(ratios)
            assert spread < 1e-10


class TestHarmonicAntiderivative:
    def test_constant(self):
        f = ph.harmonic_antiderivative(HPoly.constant(3, 1), 0, 1)
        assert ph.bombieri_norm(f - v(0)) < 1e-12

    def test_linear(self):
        f = ph.harmonic_antiderivative(v(1), 0, 1)
        assert ph.bombieri_norm(f.deriv(0) - v(1)) < 1e-12
        assert ph.bombieri_norm(ph.laplace(f)) < 1e-12

    def test_degree_two_target(self):
        p = HPoly.monomial(3, (2, 0, 0)) - ph.radial_squared(3) / 3
        f = ph.harmonic_antiderivative(p, 0, 1)
        assert ph.bombieri_norm(f.deriv(0) - p) < 1e-10
        assert ph.bombieri_norm(ph.laplace(f)) < 1e-10

    def test_scaling(self, rng):
        b = ph.harmonic_basis(3, 2)
        p = b.combine(rng.standard_normal(len(b)))
        c = 2.5 - 1.0j
        f = ph.harmonic_antiderivative(p, 2, c)
        assert ph.bombieri_norm(f.deriv(2) - p * c) < 1e-10 * abs(c)

    def test_n2_still_solvable(self):
        # By the Pascal-rule dimension count, d_j is surjective on harmonics
        # for every n >= 2, so the no-solution branch never fires for honest
        # harmonic targets; verify n=2 solvability explicitly.
        for u in ph.harmonic_basis(2, 3).members:
            f = ph.harmonic_antiderivative(u, 0, 1)
            assert ph.bombieri_norm(f.deriv(0) - u) < 1e-10

    def test_rejects_non_harmonic_input(self):
        with pytest.raises(ValidationError):
            ph.harmonic_antiderivative(ph.radial_squared(3), 0, 1)


class TestHPolyBasics:
    def test_coords_roundtrip(self, rng):
        P = random_hpoly(rng, 3, 4)
        v = P.coords()
        assert v.shape == (len(ph.monomials(3, 4)),)
        assert HPoly.from_coords(3, 4, v) == P
        assert HPoly.monomial(3, ph.monomials(3, 4)[7]).coords()[7] == 1

    def test_equality_ignores_zeros(self):
        a = HPoly(3, 1, {(1, 0, 0): 1.0, (0, 1, 0): 0.0})
        b = HPoly(3, 1, {(1, 0, 0): 1.0})
        assert a == b

    def test_bad_multiindex_rejected(self):
        with pytest.raises(ValidationError):
            HPoly(3, 2, {(1, 0, 0): 1.0})

    def test_eval(self):
        P = v(0) * v(1)
        pts = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 3.0]])
        assert np.allclose(P.eval(pts), [2.0, -0.5])
