from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cktlab import polyharm as ph
from cktlab import symbolcheck as sc
from cktlab import symtensor as sy
from cktlab.errors import ValidationError
from cktlab.polyharm import HPoly
from cktlab.symtensor import SymTensor

from conftest import random_hpoly


def random_symtensor(rng, n, m, real=False):
    coeffs = {}
    for t in ph.monomials(n, m):
        c = rng.standard_normal()
        if not real:
            c = c + 1j * rng.standard_normal()
        coeffs[t] = c
    return SymTensor(n, m, coeffs)


def full_tensor_array(T):
    """Dense full-tensor representation, for brute-force oracles."""
    shape = (T.n,) * T.m
    A = np.zeros(shape, dtype=complex)
    for K in product(range(T.n), repeat=T.m):
        A[K] = T.full_coeff(K)
    return A


class TestSymmetrize:
    def test_e1_e2(self):
        S = sy.symmetrize(3, 2, {(0, 1): 1.0})
        assert S.full_coeff((0, 1)) == 0.5
        assert S.full_coeff((1, 0)) == 0.5

    def test_idempotent_on_symmetric(self, rng):
        T = random_symtensor(rng, 3, 3)
        full = {K: T.full_coeff(K) for K in product(range(3), repeat=3)}
        again = sy.symmetrize(3, 3, full)
        assert (again - T).norm() < 1e-12 * T.norm()

    def test_result_symmetric_under_permutations(self, rng):
        full = {
            K: rng.standard_normal() + 1j * rng.standard_normal()
            for K in product(range(3), repeat=3)
        }
        S = sy.symmetrize(3, 3, full)
        A = full_tensor_array(S)
        for sigma in permutations(range(3)):
            assert np.allclose(A, np.transpose(A, sigma))

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        st.integers(-9, 9), min_size=1, max_size=6))
    def test_idempotent_exact_on_integer_tensors(self, full):
        # symmetrizing twice equals symmetrizing once, exactly, and the
        # tensor trace commutes with symmetrization on full tensors
        S = sy.symmetrize(3, 3, full)
        resym = sy.symmetrize(3, 3, {K: S.full_coeff(K)
                                     for K in product(range(3), repeat=3)})
        assert (resym - S).norm() < 1e-14 * max(1.0, S.norm())

    def test_orthogonal_projection(self, rng):
        # <S u, v> = <u, S v> for the tensor-power metric, v symmetric
        full = {
            K: rng.standard_normal() + 1j * rng.standard_normal()
            for K in product(range(3), repeat=3)
        }
        V = random_symtensor(rng, 3, 3)
        Su = sy.symmetrize(3, 3, full)
        lhs = Su.inner(V)
        rhs = sum(
            c * np.conj(V.full_coeff(K)) for K, c in full.items()
        )
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


class TestTrace:
    def test_metric_trace(self):
        g = sy.metric_tensor(3)
        assert sy.trace(g).coeffs[(0, 0, 0)] == 3

    def test_low_degree_is_zero(self):
        assert sy.trace(SymTensor.basis_element(3, (1, 0, 0))).coeffs == {}

    def test_against_bruteforce_contraction(self, rng):
        T = random_symtensor(rng, 3, 3)
        A = full_tensor_array(T)
        expected = np.einsum("iij->j", A)
        got = sy.trace(T)
        for j in range(3):
            assert got.full_coeff((j,)) == pytest.approx(expected[j], rel=1e-12, abs=1e-14)

    def test_symmetrized_e1e1e2(self):
        T = sy.symmetrize(3, 3, {(0, 0, 1): 1.0})
        tr = sy.trace(T)
        A = full_tensor_array(T)
        expected = np.einsum("iij->j", A)
        assert np.allclose([tr.full_coeff((j,)) for j in range(3)], expected)

    def test_tracefree_witness(self):
        u = sy.from_poly(HPoly.monomial(3, (2, 0, 0)) - ph.radial_squared(3) / 3)
        assert sy.trace(u).norm() < 1e-12


class TestJay:
    def test_scalar_to_metric(self):
        one = SymTensor(3, 0, {(0, 0, 0): 1.0})
        assert (sy.jay(one) - sy.metric_tensor(3)).norm() < 1e-14

    def test_adjoint_of_trace(self, rng):
        for _ in range(100):
            u = random_symtensor(rng, 3, 2)
            w = random_symtensor(rng, 3, 4)
            lhs = sy.jay(u).inner(w)
            rhs = u.inner(sy.trace(w))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_injective_rank(self):
        mono = ph.monomials(3, 2)
        J = np.column_stack(
            [sy.jay(SymTensor.basis_element(3, t)).coords() for t in mono]
        )
        assert np.linalg.matrix_rank(J) == 6


class TestTracefreeProject:
    def test_metric_killed(self):
        assert sy.tracefree_project(sy.metric_tensor(3)).norm() < 1e-13

    def test_fixes_tracefree(self):
        u = sy.from_poly(HPoly.monomial(3, (2, 0, 0)) - ph.radial_squared(3) / 3)
        assert (sy.tracefree_project(u) - u).norm() < 1e-13

    def test_decomposition_m4(self, rng):
        T = random_symtensor(rng, 3, 4)
        P = sy.tracefree_project(T)
        assert sy.trace(P).norm() < 1e-12 * T.norm()
        # complement lies in the range of jay: solve for w and check residual
        rest = T - P
        mono = ph.monomials(3, 2)
        J = np.column_stack(
            [sy.jay(SymTensor.basis_element(3, t)).coords() for t in mono]
        )
        w, *_ = np.linalg.lstsq(J, rest.coords(), rcond=None)
        assert np.linalg.norm(J @ w - rest.coords()) < 1e-12 * T.norm()

    def test_idempotent_selfadjoint(self, rng):
        T = random_symtensor(rng, 3, 3)
        S = random_symtensor(rng, 3, 3)
        PT, PS = sy.tracefree_project(T), sy.tracefree_project(S)
        assert (sy.tracefree_project(PT) - PT).norm() < 1e-12 * T.norm()
        assert abs(PT.inner(S) - T.inner(PS)) < 1e-11 * T.norm() * S.norm()


class TestPolyCorrespondence:
    def test_basis_cases(self):
        S = sy.symmetrize(3, 2, {(0, 1): 1.0})
        assert sy.to_poly(S) == HPoly(3, 2, {(1, 1, 0): 1.0})
        assert sy.to_poly(sy.metric_tensor(3)) == ph.radial_squared(3)

    def test_roundtrip(self, rng):
        P = random_hpoly(rng, 3, 4)
        assert ph.bombieri_norm(sy.to_poly(sy.from_poly(P)) - P) < 1e-13 * ph.bombieri_norm(P)

    def test_intertwining(self, rng):
        # degree-raising: to_poly(jay u) = |v|^2 to_poly(u)
        # trace: m(m-1) to_poly(trace u) = laplace(to_poly u)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 6))
            u = random_symtensor(rng, n, m)
            r2 = ph.radial_squared(n)
            lhs1 = sy.to_poly(sy.jay(u))
            rhs1 = r2 * sy.to_poly(u)
            assert ph.bombieri_norm(lhs1 - rhs1) < 1e-12 * ph.bombieri_norm(rhs1)
            lhs2 = sy.to_poly(sy.trace(u)) * (m * (m - 1))
            rhs2 = ph.laplace(sy.to_poly(u))
            scale = max(1.0, ph.bombieri_norm(rhs2))
            assert ph.bombieri_norm(lhs2 - rhs2) < 1e-12 * scale


class TestContract:
    def test_metric(self):
        out = sy.contract(sy.metric_tensor(3), np.array([1.0, 0, 0]))
        assert out == SymTensor(3, 1, {(1, 0, 0): 1.0})

    def test_symmetrized_pair(self):
        S = sy.symmetrize(3, 2, {(0, 1): 1.0})
        out = sy.contract(S, np.array([1.0, 0, 0]))
        assert out.full_coeff((1,)) == pytest.approx(0.5)

    def test_zero_vector(self, rng):
        T = random_symtensor(rng, 3, 2)
        assert sy.contract(T, np.zeros(3)).norm() == 0

    def test_degree_zero_errors(self):
        with pytest.raises(ValidationError):
            sy.contract(SymTensor(3, 0, {(0, 0, 0): 1.0}), np.ones(3))

    def test_against_full_tensor(self, rng):
        T = random_symtensor(rng, 3, 3)
        xi = rng.standard_normal(3)
        A = full_tensor_array(T)
        expected = np.einsum("i,ijk->jk", xi, A)
        got = sy.contract(T, xi)
        for K in product(range(3), repeat=2):
            assert got.full_coeff(K) == pytest.approx(expected[K], rel=1e-12, abs=1e-13)


class TestContainer:
    def test_fraction_arithmetic_exact(self):
        T = SymTensor(3, 2, {(2, 0, 0): Fraction(1, 3), (0, 1, 1): Fraction(2, 7)})
        U = SymTensor(3, 2, {(0, 1, 1): Fraction(-1, 7), (0, 0, 2): Fraction(5, 6)})
        S = (T + U) * Fraction(3, 5) - U / 3
        want = {(2, 0, 0): Fraction(1, 5), (0, 1, 1): Fraction(2, 15), (0, 0, 2): Fraction(2, 9)}
        assert S == SymTensor(3, 2, want)
        assert all(type(c) is Fraction for c in S.coeffs.values())
        assert (T - T) == SymTensor.zero(3, 2)

    def test_coords_roundtrip(self, rng):
        T = random_symtensor(rng, 4, 3)
        assert T.coords().shape == (ph.dims(4, 3)[0],)
        assert SymTensor.from_coords(4, 3, T.coords()) == T
        assert type(SymTensor.from_coords(4, 3, T.coords())) is SymTensor

    def test_not_mixed_with_polynomials(self):
        T = SymTensor.basis_element(3, (1, 1, 0))
        P = HPoly.monomial(3, (1, 1, 0))
        with pytest.raises(ValidationError):
            T + P
        with pytest.raises(ValidationError):
            P + T
        assert T != P
        with pytest.raises(TypeError, match="SymTensor is not hashable"):
            hash(T)
        assert repr(T) == "SymTensor(n=3, m=2, {(1, 1, 0): 1.0})"


class TestStructure:
    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 4), (4, 3), (4, 5)])
    def test_splitting_dimensions(self, n, m):
        # sum_k h(n, m-2k) = p(n, m), checked through actual ranks
        tf_dims = [len(sy.tracefree_basis(n, m - 2 * k)) for k in range(m // 2 + 1)]
        p, _ = ph.dims(n, m)
        for k, d in enumerate(tf_dims):
            assert d == ph.dims(n, m - 2 * k)[1]
        assert sum(tf_dims) == p

    def test_norm_matches_full_tensor(self, rng):
        T = random_symtensor(rng, 3, 3)
        A = full_tensor_array(T)
        assert T.norm() == pytest.approx(np.linalg.norm(A.ravel()), rel=1e-12)

    def test_theta_orbit_identification(self):
        # S e*_K = S e*_{K'} iff the letter counts match, cross-Theta orthogonal
        n = 3
        for m in (1, 2, 3):
            for K in product(range(n), repeat=m):
                for Kp in product(range(n), repeat=m):
                    SK = sy.symmetrize(n, m, {K: 1.0})
                    SKp = sy.symmetrize(n, m, {Kp: 1.0})
                    same = sorted(K) == sorted(Kp)
                    if same:
                        assert (SK - SKp).norm() < 1e-14
                    else:
                        assert abs(SK.inner(SKp)) < 1e-14

    def test_lambda_isometry_constant(self, rng):
        # over the trace-free subspace, the bombieri norm of the polynomial
        # image divided by the tensor norm is a single constant per (n, m)
        for n in (2, 3, 4):
            for m in range(1, 6 if n < 4 else 5):
                ratios = []
                for b in sy.tracefree_basis(n, m):
                    q = ph.bombieri_inner(sy.to_poly(b), sy.to_poly(b)).real
                    ratios.append(q / b.inner(b).real)
                spread = (max(ratios) - min(ratios)) / max(ratios)
                assert spread < 1e-10


SMALL = [(n, m) for n in (2, 3, 4) for m in range(5)]


def unit_vector(n, j):
    e = np.zeros(n)
    e[j] = 1.0
    return e


class TestCoordinateMatrices:
    """The cached coordinate matrices against the SymTensor oracle, column by column."""

    @pytest.mark.parametrize("n,m", [(n, m) for n, m in SMALL if m >= 1])
    def test_contraction(self, n, m):
        stack = sy._contraction_matrices(n, m)
        for c, t in enumerate(ph.monomials(n, m)):
            for j in range(n):
                col = sy.contract(SymTensor.basis_element(n, t), unit_vector(n, j)).coords()
                assert np.abs(stack[j, :, c] - col).max() <= 1e-15

    @pytest.mark.parametrize("n,m", SMALL)
    def test_symmetric_product(self, n, m):
        stack = sy._sym_product_matrices(n, m)
        for c, t in enumerate(ph.monomials(n, m)):
            for j in range(n):
                col = sy.sym_mult_form(unit_vector(n, j), SymTensor.basis_element(n, t)).coords()
                assert np.abs(stack[j, :, c] - col).max() <= 1e-15

    @pytest.mark.parametrize("n,m", [(n, m) for n, m in SMALL if m >= 2])
    def test_trace(self, n, m):
        T = sy._trace_matrix(n, m)
        for c, t in enumerate(ph.monomials(n, m)):
            col = sy.trace(SymTensor.basis_element(n, t)).coords()
            assert np.abs(T[:, c] - col).max() <= 1e-15

    @pytest.mark.parametrize("n,m", [(4, 8), (5, 6), (3, 1), (3, 0)])
    def test_tracefree_basis_orthonormal_and_tracefree(self, n, m):
        V = sy._tracefree_coords(n, m)
        w = sy._weights(n, m)
        assert V.shape == (ph.dims(n, m)[0], ph.dims(n, m)[1])
        assert np.abs(V.T @ (w[:, None] * V) - np.eye(V.shape[1])).max() <= 1e-13
        if m >= 2:
            assert np.abs(sy._trace_matrix(n, m) @ V).max() <= 1e-13

    @pytest.mark.parametrize("n,m", SMALL)
    @pytest.mark.parametrize("model", ["tracefree", "full"])
    def test_symbol_dstar_matches_member_oracle(self, n, m, model, rng):
        # the per-member construction: -i contract(t, xi) expanded in an
        # orthonormal codomain basis, entry by entry through the tensor metric
        def orthonormal_members(k):
            if model == "tracefree":
                return sy.tracefree_basis(n, k)
            members = [SymTensor.basis_element(n, t) for t in ph.monomials(n, k)]
            return [t * (1 / t.norm()) for t in members]

        dom, cod = orthonormal_members(m), orthonormal_members(m - 1)
        for _ in range(3):
            xi = rng.standard_normal(n)
            xi /= np.linalg.norm(xi)
            oracle = np.zeros((len(cod), len(dom)), dtype=complex)
            if m >= 1:
                for a, t in enumerate(dom):
                    ct = sy.contract(t, xi) * (-1j)
                    for b, w in enumerate(cod):
                        oracle[b, a] = ct.inner(w)
            M = sc.symbol_dstar(n, m, xi, model)
            assert M.shape == oracle.shape
            assert np.abs(M - oracle).max(initial=0.0) <= 1e-13
