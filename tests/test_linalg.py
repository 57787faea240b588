import re

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from cktlab.errors import ConvergenceError, ValidationError
from cktlab.linalg import ENTRY_CEILING, CSR, block_nullspace, check_entries, nullspace


def test_entry_ceiling_is_inclusive():
    check_entries("an array", ENTRY_CEILING)
    with pytest.raises(ValidationError, match=f"^an array needs {ENTRY_CEILING + 1} complex "
                                              f"entries, over the ceiling of {ENTRY_CEILING}$"):
        check_entries("an array", ENTRY_CEILING + 1)


class TestNullspace:
    def test_zero_matrix(self):
        K, _ = nullspace(np.zeros((3, 4)), 1e-10)
        assert K.shape == (4, 4)

    def test_identity(self):
        K, _ = nullspace(np.eye(3), 1e-10)
        assert K.shape == (3, 0)

    def test_rank_one(self, rng):
        a = rng.standard_normal(2)
        M = np.outer(a, a)
        K, _ = nullspace(M, 1e-10)
        assert K.shape == (2, 1)
        assert np.abs(K.conj().T @ K - np.eye(1)).max() < 1e-12
        assert np.linalg.norm(M @ K) < 1e-12

    def test_empty_rows(self):
        K, s = nullspace(np.zeros((0, 3), dtype=complex), 1e-10)
        assert K.shape == (3, 3) and len(s) == 0
        assert np.abs(K.conj().T @ K - np.eye(3)).max() < 1e-15

    def test_no_columns(self):
        K, s = nullspace(np.zeros((4, 0)), 1e-10)
        assert K.shape == (0, 0) and len(s) == 0

    @pytest.mark.parametrize("transpose", [False, True], ids=["tall", "wide"])
    def test_tall_and_wide(self, rng, transpose):
        # rank 2 either way; the tall input takes the thin SVD, the wide one the full
        M = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 3))
        if transpose:
            M = M.T
        K, s = nullspace(M, 1e-10)
        assert K.shape == (M.shape[1], M.shape[1] - 2)
        assert len(s) == 3
        assert np.abs(K.conj().T @ K - np.eye(K.shape[1])).max() < 1e-12
        assert np.linalg.norm(M @ K) < 1e-12 * np.linalg.norm(M)

    def test_keeps_dtype(self, rng):
        M = rng.standard_normal((2, 3))
        assert nullspace(M, 1e-10)[0].dtype == np.float64
        assert nullspace(M.astype(complex), 1e-10)[0].dtype == np.complex128

    def test_relative_cut(self):
        M = np.diag([1.0, 1e-8, 0.0])
        assert nullspace(M, 1e-10)[0].shape[1] == 1
        assert nullspace(M, 1e-6)[0].shape[1] == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        M = np.eye(3)
        M[0, 1] = bad
        with pytest.raises(ConvergenceError):
            nullspace(M, 1e-10)


def bases(stacks):
    """Each block's orthonormal kernel basis, as columns, from block_nullspace's
    (U stack, V^H stack, ranks) per stack."""
    return [v[rank:].conj().T for _, vt, ranks in stacks for v, rank in zip(vt, ranks)]


class TestBlockNullspace:
    def test_cut_against_the_whole_matrix(self):
        # 1e-11 is the largest singular value of its own block, but below
        # 1e-10 times that of the whole matrix
        stacks, s = block_nullspace([np.eye(2)[None], np.array([[[1e-11]]])], 1e-10)
        kernels = bases(stacks)
        assert [k.shape[1] for k in kernels] == [0, 1]
        assert nullspace(np.array([[1e-11]]), 1e-10)[0].shape[1] == 0
        assert np.array_equal(s, [1.0, 1.0, 1e-11])

    def test_matches_the_assembled_matrix(self, rng):
        # two stacks, blocks of rank 1 (tall), rank 0 and rank 2 (wide)
        tall = np.stack([np.outer(rng.standard_normal(3), rng.standard_normal(2)),
                         np.zeros((3, 2))])
        wide = (rng.standard_normal((2, 2)) @ rng.standard_normal((2, 4)))[None]
        stacks, s = block_nullspace([tall, wide], 1e-10)
        kernels = bases(stacks)
        blocks = [*tall, *wide]
        dense = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
        full = np.zeros((dense.shape[1], 0))
        r = c = 0
        for b, k in zip(blocks, kernels):
            dense[r:r + b.shape[0], c:c + b.shape[1]] = b
            col = np.zeros((dense.shape[1], k.shape[1]))
            col[c:c + b.shape[1]] = k
            full = np.hstack([full, col])
            r, c = r + b.shape[0], c + b.shape[1]
        oracle, s_dense = nullspace(dense, 1e-10)
        assert [k.shape[1] for k in kernels] == [1, 2, 2]
        assert np.abs(full @ full.T - oracle @ oracle.T).max() < 1e-12
        # the assembled matrix has two more singular values, both zero
        assert len(s_dense) == len(s) + 2
        assert np.abs(s_dense - np.append(s, [0.0, 0.0])).max() < 1e-12

    def test_ragged_ranks(self, rng):
        # one stack holds blocks of ranks 0, 1 and 2; the kernel rows of each
        # block are read through its own rank, as nullspace reads its one block
        square = np.stack([np.zeros((3, 3)),
                           np.outer(rng.standard_normal(3), rng.standard_normal(3)),
                           rng.standard_normal((3, 2)) @ rng.standard_normal((2, 3))])
        wide = rng.standard_normal((2, 2, 4))
        stacks, _ = block_nullspace([square, wide], 1e-10)
        assert [list(rank) for _, _, rank in stacks] == [[0, 1, 2], [2, 2]]
        for block, basis in zip([*square, *wide], bases(stacks)):
            assert np.array_equal(basis, nullspace(block, 1e-10)[0])

    def test_no_blocks(self):
        stacks, s = block_nullspace([], 1e-10)
        assert bases(stacks) == [] and len(s) == 0


@st.composite
def low_rank(draw):
    """(M = A B, rank) with A, B well-conditioned factors of a known rank."""
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(1, 7))
    rank = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cplx = draw(st.booleans())

    def gaussian(shape):
        G = rng.standard_normal(shape)
        return G + 1j * rng.standard_normal(shape) if cplx else G

    # orthonormal columns times scales in [0.5, 2] keep sigma_r / sigma_1 >= 1/4
    A = np.linalg.qr(gaussian((rows, rank)))[0] * rng.uniform(0.5, 2.0, rank)
    B = np.linalg.qr(gaussian((cols, rank)))[0].conj().T
    return A @ B, rank


@settings(deadline=None, max_examples=200)
@given(low_rank())
def test_nullity_of_known_rank_product(case):
    M, rank = case
    N, _ = nullspace(M, 1e-10)
    assert N.shape == (M.shape[1], M.shape[1] - rank)
    assert np.linalg.norm(N.conj().T @ N - np.eye(N.shape[1])) < 1e-12
    assert np.linalg.norm(M @ N) <= 1e-10 * np.linalg.norm(M)


@st.composite
def coo_pairs(draw):
    """(shape, COO triplets of a, COO triplets of b) for two complex matrices
    with 0-6 rows and 0-6 columns.  Entries may be exact zeros, positions
    may repeat, and a repeat may cancel its first entry; b holds some of a's
    positions with a's value or its negative, so a + b and a - b cancel
    there.  A position repeats at most once: scipy sums the duplicates of a
    position after an unstable sort, so for three or more their order of
    summation, and with it the rounding, is unspecified."""
    shape = (draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = shape[0] * shape[1]

    def values(count):
        v = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        v[rng.random(count) < 0.2] = 0
        return v

    def triplets(keys, vals):
        twice = rng.choice(len(keys), rng.integers(0, len(keys) + 1), replace=False)
        again = values(len(twice))
        cancel = rng.random(len(twice)) < 0.3
        again[cancel] = -vals[twice][cancel]
        keys, vals = np.concatenate([keys, keys[twice]]), np.concatenate([vals, again])
        order = rng.permutation(len(keys))
        return (*np.divmod(keys[order], max(shape[1], 1)), vals[order])

    a_keys = rng.choice(size, rng.integers(0, size + 1), replace=False)
    a_vals = values(len(a_keys))
    b_keys = rng.choice(size, rng.integers(0, size + 1), replace=False)
    b_vals = values(len(b_keys))
    a_dense = np.zeros(size, dtype=complex)
    a_dense[a_keys] = a_vals
    sign = rng.choice([-1, 1, 0], len(b_keys))
    pick = np.isin(b_keys, a_keys) & (sign != 0)
    b_vals[pick] = sign[pick] * a_dense[b_keys[pick]]
    return shape, triplets(a_keys, a_vals), triplets(b_keys, b_vals)


def scipy_csr(shape, triplets):
    rows, cols, data = triplets
    M = sparse.csr_matrix((data, (rows, cols)), shape=shape)
    M.sum_duplicates()
    M.eliminate_zeros()
    return M


def assert_same(got, oracle):
    oracle = oracle.tocsr()
    oracle.sort_indices()
    assert got.shape == oracle.shape and got.nnz == oracle.nnz
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(oracle, name)), name


@st.composite
def matmul_cases(draw):
    """(rows, cols, data, shape, x) for a product `CSR @ x`: real or complex
    data times a real or complex x, x 1-D or 2-D with 0, 1 or 3 columns.  The
    matrix has empty rows, or no rows, or one row holding most of its
    entries.  Data and x carry signed zeros, so a row sum started from its
    first term instead of +0 would show as a -0.0."""
    layout = draw(st.sampled_from(["empty rows", "no rows", "one long row"]))
    shape = (0 if layout == "no rows" else draw(st.integers(1, 8)), draw(st.integers(0, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def signed(size, cplx):
        parts = rng.standard_normal((2 if cplx else 1,) + size)
        zero = rng.random(parts.shape) < 0.2
        parts[zero] = np.copysign(0.0, parts[zero])
        if not cplx:
            return parts[0]
        out = np.empty(size, dtype=complex)
        out.real, out.imag = parts
        return out

    mask = rng.random(shape) < 0.1
    if shape[0]:
        row = rng.integers(shape[0])
        mask[row] = rng.random(shape[1]) < 0.9 if layout == "one long row" else False
    rows, cols = np.nonzero(mask)
    data = signed(rows.shape, draw(st.booleans()))
    tail = draw(st.sampled_from([(), (0,), (1,), (3,)]))
    return rows, cols, data, shape, signed((shape[1],) + tail, draw(st.booleans()))


class TestCSR:
    """The record's arrays and results are scipy.sparse's, exactly."""

    @settings(max_examples=150, deadline=None)
    @given(coo_pairs())
    def test_matches_scipy_sparse(self, case):
        shape, a_coo, b_coo = case
        a, b = (CSR.from_coo(*coo, shape) for coo in (a_coo, b_coo))
        sa, sb = (scipy_csr(shape, coo) for coo in (a_coo, b_coo))
        assert_same(a, sa)
        assert np.array_equal(a.toarray(), sa.toarray())
        assert np.array_equal(a.row, sa.tocoo().row)
        assert_same(a.adjoint(), sa.conj().T)
        assert_same(a + b, sa + sb)
        assert_same(a - b, sa - sb)
        assert_same(a + a, sa + sa)
        assert_same(a - a, sa - sa)
        if a.shape[0] * a.shape[1]:
            assert abs(a - b).max() == abs(sa - sb).max()
        rng = np.random.default_rng(a.nnz)
        for x in (rng.standard_normal(shape[1]) + 1j * rng.standard_normal(shape[1]),
                  rng.standard_normal((shape[1], 3)) + 1j * rng.standard_normal((shape[1], 3))):
            assert np.array_equal(a @ x, sa @ x)

    def test_long_rows_multiply_like_scipy(self, rng):
        # rows of 8 and more terms, where a pairwise or blocked sum, or a fused
        # complex multiply-add, would round differently from scipy's kernel
        dense = rng.standard_normal((5, 40)) + 1j * rng.standard_normal((5, 40))
        dense[rng.random(dense.shape) < 0.2] = 0
        rows, cols = np.nonzero(dense)
        a = CSR.from_coo(rows, cols, dense[rows, cols], dense.shape)
        for x in (rng.standard_normal(40) + 1j * rng.standard_normal(40),
                  rng.standard_normal((40, 7)) + 1j * rng.standard_normal((40, 7))):
            assert np.array_equal(a @ x, sparse.csr_matrix(dense) @ x)

    @settings(max_examples=200, deadline=None)
    @given(matmul_cases())
    def test_product_is_scipys_byte_for_byte(self, case):
        # bytes, not np.array_equal, which takes -0.0 and 0.0 as equal
        *coo, shape, x = case
        got, want = CSR.from_coo(*coo, shape) @ x, scipy_csr(shape, coo) @ x
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    @pytest.mark.parametrize("length", [1, 3])
    def test_product_shapes_must_agree(self, length):
        a = CSR.from_coo([0], [0], [1.0 + 0j], (2, 2))
        for x in (np.ones(length), np.ones((length, 2))):
            with pytest.raises(ValueError, match=re.escape(f"(2, 2) and {x.shape}")):
                a @ x

    @pytest.mark.parametrize("rows, cols, message", [
        ([0], [2], "column index 2"),  # would wrap to (1, 0)
        ([2], [0], "row index 2"),
        ([-1], [0], "row index -1"),
        ([0], [-1], "column index -1"),
        ([0, 5, -3], [0, 0, 0], "row index 5"),  # the first offending one
    ])
    def test_from_coo_rejects_indices_outside_the_shape(self, rows, cols, message):
        with pytest.raises(ValueError, match=re.escape(message) + " out of range"):
            CSR.from_coo(rows, cols, np.ones(len(rows), dtype=complex), (2, 2))

    def test_shapes_must_agree(self):
        a = CSR.from_coo([0], [0], [1.0 + 0j], (2, 2))
        with pytest.raises(ValueError):
            a + CSR.from_coo([0], [0], [1.0 + 0j], (2, 3))
