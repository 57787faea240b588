"""The numerical rank decision shared by every kernel computation.

Each kernel-dimension verdict in ckt-lab (ker X+, ker X-, symbol kernels,
the lowering map, the harmonic constraint, the commutant of a holonomy
set) is one cut of a singular-value list.  ``nullspace`` makes that cut
in one place; each caller passes its own relative tolerance.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

__all__ = ["nullspace"]


def nullspace(M, rtol):
    """(orthonormal kernel basis as columns, singular values) of a dense M.

    The rank is the number of singular values above rtol * s[0]; with none
    above it the rank is 0, so a zero matrix or a matrix with no rows has
    the whole space as its kernel.  The thin SVD is used when M has at
    least as many rows as columns (V^H is then complete without the full
    U), the full SVD otherwise.  The dtype of M is kept.  An SVD that does
    not converge, or non-finite singular values, raise ConvergenceError.
    """
    rows, cols = M.shape
    try:
        _, s, vt = np.linalg.svd(M, full_matrices=rows < cols)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge on a {rows}x{cols} matrix: {exc}") from exc
    if not np.isfinite(s).all():
        raise ConvergenceError(f"non-finite singular values of a {rows}x{cols} matrix")
    rank = int((s > rtol * s[0]).sum()) if len(s) else 0
    return vt[rank:].conj().T, s
