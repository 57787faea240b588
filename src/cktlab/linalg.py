"""The numerical rank decision shared by every kernel computation.

Each kernel-dimension verdict in ckt-lab (ker X+, ker X-, symbol kernels,
the lowering map, the harmonic constraint, the commutant of a holonomy
set) is one cut of a singular-value list.  ``block_nullspace`` makes that
cut in one place, for a matrix given by its diagonal blocks; ``nullspace``
is its one-block case.  Each caller passes its own relative tolerance.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

__all__ = ["nullspace", "block_nullspace"]


def _svd(M):
    """(singular values, V^H) of a stack of dense blocks, V^H complete for wide blocks."""
    rows, cols = M.shape[-2:]
    try:
        _, s, vt = np.linalg.svd(M, full_matrices=rows < cols)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge on a {rows}x{cols} matrix: {exc}") from exc
    if not np.isfinite(s).all():
        raise ConvergenceError(f"non-finite singular values of a {rows}x{cols} matrix")
    return s, vt


def block_nullspace(stacks, rtol):
    """(orthonormal kernel basis of each block, singular values of all blocks)
    of a block-diagonal matrix.

    Each entry of `stacks` is an array of shape (count, rows, cols) holding
    `count` dense diagonal blocks of one shape; the bases come in the order
    of the stacks and of the blocks within each.  The cut is rtol * s0 with
    s0 the largest singular value over all blocks, i.e. of the whole
    matrix, so each block keeps exactly the singular values an SVD of the
    whole matrix would keep.  A block's rank is the number of its singular
    values above the cut; with s0 = 0 every rank is 0.  The thin SVD is
    used for blocks with at least as many rows as columns (V^H is then
    complete without the full U), the full SVD otherwise.  The dtype is
    kept.  The singular values of all blocks are returned in descending
    order; they are those of the whole matrix, less the zeros a mix of
    tall and wide blocks adds to its rectangular shape.  An SVD
    that does not converge, or non-finite singular values, raise
    ConvergenceError.
    """
    svds = [_svd(B) for B in stacks]
    s = np.sort(np.concatenate([sv.ravel() for sv, _ in svds] + [np.zeros(0)]))[::-1]
    cut = rtol * s[0] if len(s) else 0.0
    return [v[int((si > cut).sum()):].conj().T for sv, vt in svds for si, v in zip(sv, vt)], s


def nullspace(M, rtol):
    """(orthonormal kernel basis as columns, singular values) of a dense M:
    ``block_nullspace`` with M as the only block, so the rank is the number
    of singular values above rtol * s[0], and a zero matrix or a matrix
    with no rows has the whole space as its kernel."""
    (kernel,), s = block_nullspace([np.asarray(M)[None]], rtol)
    return kernel, s
