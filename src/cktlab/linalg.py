"""The numerical rank decision shared by every kernel computation.

Each kernel-dimension verdict in ckt-lab (ker X+, ker X-, symbol kernels,
the lowering map, the harmonic constraint, the commutant of a holonomy
set) is one cut of a singular-value list.  ``block_nullspace`` makes that
cut in one place, for a matrix given by stacks of equally shaped diagonal
blocks, and returns each stack's U and V^H factors with the rank of every
block: a caller reads all the kernel bases of a stack at once through the
mask ``arange(cols) >= rank`` instead of block by block.  ``nullspace`` is its
one-block case.  Each caller passes its own relative tolerance.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

__all__ = ["nullspace", "block_nullspace"]


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
    cut = rtol * s[0] if len(s) else 0.0
    return [(u, vt, (sv > cut).sum(axis=1)) for u, sv, vt in svds], s


def nullspace(M, rtol):
    """(orthonormal kernel basis as columns, singular values) of a dense M:
    ``block_nullspace`` with M as the only block, so the rank is the number
    of singular values above rtol * s[0], and a zero matrix or a matrix
    with no rows has the whole space as its kernel."""
    ((_, vt, (rank,)),), s = block_nullspace([np.asarray(M)[None]], rtol)
    return vt[0, rank:].conj().T, s
