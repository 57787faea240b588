"""The numerical rank decision shared by every kernel computation, and the
sparse matrix record of the torus model.

Each kernel-dimension verdict in ckt-lab (ker X+, ker X-, symbol kernels,
the lowering map, the harmonic constraint, the commutant of a holonomy
set) is one cut of a singular-value list.  ``block_nullspace`` makes that
cut in one place, for a matrix given by stacks of equally shaped diagonal
blocks, and returns each stack's U and V^H factors with the rank of every
block: a caller reads all the kernel bases of a stack at once through the
mask ``arange(cols) >= rank`` instead of block by block.  ``nullspace`` is its
one-block case.  Each caller passes its own relative tolerance, and
``rank_cut`` states the cut for a caller that reports its margin.

``CSR`` is the torus model's sparse matrix: a frozen numpy record of the
compressed-sparse-row arrays with the few operations the model, its
checks and its tests call.  It is numpy alone, so no subcommand loads
scipy.

``check_entries`` refuses a run whose largest array, counted before
anything is built, is over ``ENTRY_CEILING``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError

__all__ = ["nullspace", "block_nullspace", "rank_cut", "CSR", "ENTRY_CEILING", "check_entries"]

# complex entries of the largest array a run may allocate, 2^24 (256 MiB); a
# run over it is refused before it allocates
ENTRY_CEILING = 1 << 24


def check_entries(array, entries):
    """ValidationError naming `array` when its `entries` complex entries
    are over ENTRY_CEILING."""
    if entries > ENTRY_CEILING:
        raise ValidationError(
            f"{array} needs {entries} complex entries, over the ceiling of {ENTRY_CEILING}")


def _svd(M):
    """(U, singular values, V^H) of a stack of blocks, V^H complete for wide blocks."""
    rows, cols = M.shape[-2:]
    try:
        u, s, vt = np.linalg.svd(M, full_matrices=rows < cols)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge on a {rows}x{cols} matrix: {exc}") from exc
    if not np.isfinite(s).all():
        raise ConvergenceError(f"non-finite singular values of a {rows}x{cols} matrix")
    return u, s, vt


def block_nullspace(stacks, rtol):
    """([(U stack, V^H stack, ranks)] per stack, singular values of all
    blocks) of a block-diagonal matrix.

    Each entry of `stacks` is an array of shape (count, rows, cols) holding
    `count` dense diagonal blocks of one shape.  For each stack come its U
    and V^H stacks and the (count,) ranks of its blocks: a block's first rank
    columns of U span its range, and rows rank: of its V^H, conjugated, are
    its orthonormal kernel basis; ``np.arange(cols) >= ranks[:, None]`` marks
    the kernel rows of the whole stack.  The cut is rtol * s0 with s0 the
    largest singular value over all blocks, i.e. of the whole matrix, so
    each block keeps exactly the singular values an SVD of the whole matrix
    would keep.  A block's rank is the number of its singular values above
    the cut; with s0 = 0 every rank is 0.  The thin SVD is used for blocks
    with at least as many rows as columns (V^H is then complete without the
    full U), the full SVD otherwise.  The dtype is kept.  The singular
    values of all blocks are returned in descending order; they are those
    of the whole matrix, less the zeros a mix of tall and wide blocks adds
    to its rectangular shape.  An SVD that does not converge, or non-finite
    singular values, raise ConvergenceError.
    """
    svds = [_svd(B) for B in stacks]
    s = np.sort(np.concatenate([sv.ravel() for _, sv, _ in svds] + [np.zeros(0)]))[::-1]
    cut = rank_cut(s, rtol)
    return [(u, vt, (sv > cut).sum(axis=1)) for u, sv, vt in svds], s


def rank_cut(s, rtol):
    """rtol times the largest of the descending singular values s, 0.0 when
    there is none: the singular values above it are the rank."""
    return rtol * s[0] if len(s) else 0.0


def nullspace(M, rtol):
    """(orthonormal kernel basis as columns, singular values) of a dense M:
    ``block_nullspace`` with M as the only block, so the rank is the number
    of singular values above rtol * s[0], and a zero matrix or a matrix
    with no rows has the whole space as its kernel."""
    ((_, vt, (rank,)),), s = block_nullspace([np.asarray(M)[None]], rtol)
    return vt[0, rank:].conj().T, s


@dataclass(frozen=True, eq=False)
class CSR:
    """A sparse matrix in canonical compressed-sparse-row form: row i stores
    data[indptr[i]:indptr[i + 1]] at the columns indices[indptr[i]:indptr[i + 1]],
    ascending, with no duplicate and no exact zero.  Build one with
    `from_coo`; every operation returns a canonical record, and its arrays are
    those scipy.sparse computes for the same operation."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    @classmethod
    def from_coo(cls, rows, cols, data, shape):
        """The matrix with entries data at (rows, cols): duplicates summed,
        exact zeros dropped, the entries sorted row-major.  An index outside
        the shape raises ValueError."""
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        for name, index, size in (("row", rows, shape[0]), ("column", cols, shape[1])):
            if index.size and (index.min() < 0 or index.max() >= size):
                bad = index[(index < 0) | (index >= size)][0]
                raise ValueError(f"{name} index {bad} out of range for shape {tuple(shape)}")
        keys = rows * shape[1] + cols
        order = np.argsort(keys, kind="stable")
        keys, data = keys[order], np.asarray(data)[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        if not first.all():
            starts = np.flatnonzero(first)
            keys, data = keys[starts], np.add.reduceat(data, starts)
        return cls._from_keys(keys, data, shape)

    @classmethod
    def _from_keys(cls, keys, data, shape):
        """The record of unique, ascending row-major keys row * cols + col,
        exact zeros dropped."""
        keep = data != 0
        rows, cols = np.divmod(keys[keep], max(shape[1], 1))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=shape[0]))])
        return cls(data[keep], cols, indptr, tuple(shape))

    @property
    def nnz(self):
        return len(self.data)

    @property
    def row(self):
        """The row index of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def _keys(self):
        return self.row * self.shape[1] + self.indices

    def toarray(self):
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self.row, self.indices] = self.data
        return out

    def adjoint(self):
        """The conjugate transpose."""
        order = np.argsort(self.indices, kind="stable")  # by column, rows ascending
        indptr = np.concatenate([[0], np.cumsum(np.bincount(self.indices,
                                                            minlength=self.shape[1]))])
        return CSR(self.data[order].conj(), self.row[order], indptr, self.shape[::-1])

    def _plus(self, other, data):
        """self + (other with its data replaced by `data`): entry by entry when
        both store the same places, else by merging other's keys into self's."""
        if self.shape != other.shape:
            raise ValueError(f"shapes {self.shape} and {other.shape} differ")
        keys, theirs = self._keys(), other._keys()
        if np.array_equal(keys, theirs):
            return CSR._from_keys(keys, self.data + data, self.shape)
        at = np.searchsorted(keys, theirs)
        hit = at < len(keys)
        hit[hit] = keys[at[hit]] == theirs[hit]
        out = self.data.astype(np.result_type(self.data, data))
        out[at[hit]] += data[hit]
        new = at[~hit]
        return CSR._from_keys(np.insert(keys, new, theirs[~hit]),
                              np.insert(out, new, data[~hit]), self.shape)

    def __add__(self, other):
        return self._plus(other, other.data)

    def __sub__(self, other):
        return self._plus(other, -other.data)

    def __abs__(self):
        return CSR(np.abs(self.data), self.indices, self.indptr, self.shape)

    def max(self):
        """The largest entry of a real matrix, its implicit zeros included."""
        if self.nnz < self.shape[0] * self.shape[1]:
            return self.data.max(initial=0)
        return self.data.max()

    def __matmul__(self, x):
        """The product with a dense vector or matrix x, bit for bit scipy's: a
        complex term is (ar xr - ai xi) + i (ar xi + ai xr), as numpy's own
        complex product may fuse a multiply-add, and each row sums its terms
        in ascending column order, starting from 0.  The rows, sorted by entry
        count, descending, hold their k-th entries in a prefix of that order;
        layer k's terms are formed for that prefix alone and added in place
        into the output (numpy's own sum may add pairwise), so beyond the
        result no array holds more than rows * x.shape[1:] entries."""
        x = np.asarray(x)
        if x.shape[:1] != self.shape[1:]:
            raise ValueError(f"shapes {self.shape} and {x.shape} do not align")
        counts = np.diff(self.indptr)
        order = np.argsort(-counts, kind="stable")
        # the number of rows holding a k-th entry, k = 0 .. max row nnz - 1
        live = np.searchsorted(-counts[order], -np.arange(counts.max(initial=0)))
        first = self.indptr[order]
        sums = np.zeros((self.shape[0],) + x.shape[1:], dtype=np.result_type(self.data, x))
        for k, end in enumerate(live):
            at = first[:end] + k
            a, b = self.data[at].reshape((-1,) + (1,) * (x.ndim - 1)), x[self.indices[at]]
            if np.iscomplexobj(sums):
                sums[:end].real += a.real * b.real - a.imag * b.imag
                sums[:end].imag += a.real * b.imag + a.imag * b.real
            else:
                sums[:end] += a * b
        out = np.empty_like(sums)
        out[order] = sums
        return out
