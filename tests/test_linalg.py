import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cktlab.errors import ConvergenceError
from cktlab.linalg import block_nullspace, nullspace


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
