"""Finite-dimensional resolvent calculus around an eigenvalue cluster at 0.

The spectral window of a matrix X holds the Riesz projector of the
resolvent (X + z)^{-1} and its constant Laurent term (reduced resolvent)
at z = 0.  Projector and reduced resolvent are computed by trapezoidal
contour quadrature with node doubling, which converges geometrically for
analytic integrands, and cross-checked against the eigendecomposition
route.  The nodes are the endpoint nodes radius exp(2 pi i k / N), which
nest under doubling: each refinement inverts only the N/2 new nodes, a
few at a time as one stacked inverse, and adds them to a running sum.

The source paper's generators are skew-adjoint (their connections are
unitary), and so are their perturbations; `random_skew_adjoint_with_kernel`
returns an exactly skew-Hermitian X, X == -X^H bit for bit, and X + s P
with s real and P exactly skew is exactly skew too.  For such an X the
resolvents at the nodes k and N/2 - k (mod N), z and -conj z, are
R(-conj z) = -R(z)^H, so a level inverts only one node of each pair: N/2
+ 1 inverses up to level N instead of N.  Every other X is integrated
node by node.

The other convention, (z - X)^{-1} = -(X + (-z))^{-1}, is this one at
the mirrored node, and every level is closed under z -> -z: its
projector is the same, its Laurent constant term and cluster sum the
negatives.

Cluster sums need only the trace of the resolvent, not the resolvent
itself.  They reduce each matrix once to upper Hessenberg form H (a
unitary similarity, so traces of resolvents are unchanged) and take
Tr (H + z)^{-1} = d/dz log det(H + z) from a pivoted LU of the shifted
Hessenberg matrix that carries the z-derivative along: O(n^2) work per
node instead of a dense O(n^3) inverse, batched over a stack of
matrices and the nodes of a level, each matrix on its own circle.  The
Hessenberg form of an exactly skew-Hermitian matrix is tridiagonal, and
the reduction sets its entries above the superdiagonal, rounding errors
of size eps |X|, to 0; the elimination reads the stack's widest band b
from the forms and carries rows of b + 2 entries, O(n b) work per node,
O(n) for a stack of skew matrices.  A stack with one non-skew matrix is
walked at full width, and every matrix's trace is the same bit for bit
at either width.
`perturbation_suite` is the one walker of the five-point stencil: the
stencils of a run of windows and their conjugation grids (the X_s of
`conjugation_check`) fill one preallocated stack of at most 2^16 complex
entries (or one window's matrices, when they are more), reduced in place
once and walked once per level; `lambda_derivatives` is its one-item
call with an empty grid, and a window's grid point s = 0 is its
stencil's centre X, reduced and walked once.  A level's new nodes go
through one trace walk, in chunks of at most 2^14 entries per working
row.  Each matrix's level sum is taken over its own nodes, so its
cluster sum does not depend on the other matrices of its stack.

The window radius must isolate the cluster at 0, and the cluster must be
semisimple: the quadrature for the Laurent constant term reads off the
residue at z = 0 and is only the reduced resolvent when no other
eigenvalue sits inside the circle and X Pi = 0.  `spectral_window`
takes one eig of X for its default radius, contour clearance, zero rule
(conditioning-aware, so an ill-conditioned zero cluster stays at zero),
enclosed count and cross-check, and refuses a window that breaks either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ValidationError

__all__ = [
    "SpectralWindow",
    "spectral_window",
    "resolvent_identity_check",
    "pi_operator",
    "cluster_sum",
    "cluster_sum_minus",
    "lambda_derivatives",
    "conjugation_check",
    "perturbation_suite",
    "default_window_radius",
    "random_skew_adjoint_with_kernel",
]


@dataclass
class SpectralWindow:
    X: np.ndarray
    contour_radius: float
    pi0_plus: np.ndarray
    r0_plus: np.ndarray
    quadrature_nodes: int
    enclosed: int  # eigenvalues of X inside the contour, with multiplicity
    eig_crosscheck: float = field(default=float("nan"))
    # min of (|w| - contour_radius) / contour_radius over the eigenvalues w
    # of X outside the contour, inf when there is none
    clearance: float = field(default=float("nan"))

    # (z - X)^{-1} = -(X + (-z))^{-1} on a contour symmetric under z -> -z
    @property
    def pi0_minus(self) -> np.ndarray:
        return self.pi0_plus

    @property
    def r0_minus(self) -> np.ndarray:
        return -self.r0_plus


def _eig(X):
    """One eigendecomposition of X: (w, V, V^-1, kappa).

    V's columns have unit norm, so the condition number kappa_i of w_i is
    the norm of row i of V^-1.  When V is singular to working precision
    (no eigenbasis), V^-1 is None and every kappa is infinite.
    """
    w, V = np.linalg.eig(X)
    try:
        Vinv = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return w, V, None, np.full(len(w), np.inf)
    with np.errstate(over="ignore"):  # kappa overflows to inf for a nilpotent X
        return w, V, Vinv, np.linalg.norm(Vinv, axis=1)


def _zero(X, w, kappa, kappa_max=np.inf):
    """Mask of the eigenvalues w of X that count as zero: |w| at most
    max(1e-12 max |w|, 1e-300), or within the rounding error of eig,
    10 kappa n eps |X|_F, where kappa <= kappa_max.  The second rule keeps
    a zero cluster with an ill-conditioned eigenbasis at zero."""
    mags = np.abs(w)
    rounding = 10 * kappa * len(w) * np.finfo(float).eps * np.linalg.norm(X)
    first = mags <= max(1e-12 * mags.max(initial=0.0), 1e-300)
    return first | ((mags <= rounding) & (kappa <= kappa_max))


def _default_radius(X, w, kappa):
    """Half the smallest nonzero |w|, 1.0 when there is none.  Rounding
    excuses only where first-order perturbation theory holds, kappa <=
    eps^-1/2: a defective eigenvalue (kappa about 1/eps) stays nonzero."""
    nonzero = np.abs(w)[~_zero(X, w, kappa, np.finfo(float).eps ** -0.5)]
    return float(nonzero.min()) / 2 if len(nonzero) else 1.0


# nodes per stacked inverse: a whole level at once would hold every
# resolvent of the level in memory
_NODE_GROUP = 4


def _check_radius(radius):
    if not (math.isfinite(radius) and radius > 0):
        raise ValidationError(f"contour radius must be finite and > 0, got {radius}")


def _endpoint_levels(max_nodes):
    """Yield (N, k, the unit nodes exp(2 pi i k / N) level N adds), N = 16,
    32, ... up to max_nodes.

    The nodes z_k = radius exp(2 pi i k / N) nest under doubling: level 16
    adds all 16 k, every later level only the N/2 odd k the previous lacks.
    The yielded unit nodes are scaled by each caller's radius.
    """
    N = 16
    k = np.arange(N)
    while N <= max_nodes:
        yield N, k, np.exp(2j * math.pi * k / N)
        N *= 2
        k = np.arange(1, N, 2)


def _skew(X):
    """Whether the square matrix X is exactly skew-Hermitian, X == -X^H,
    tested on its real and imaginary parts: no complex temporary."""
    return np.array_equal(X.real, -X.real.T) and np.array_equal(X.imag, X.imag.T)


def _trapezoid_levels(X, radius, max_nodes=1 << 15):
    """Yield (N, the means (pi, r) of z R(z) and R(z), R(z) = (X + z)^{-1},
    over the N endpoint nodes), N = 16, 32, ...: the Riesz projector (the
    dz = i z dtheta weight turns 1/z into 1) and the Laurent constant term
    at 0.  Each level inverts only the nodes it adds, _NODE_GROUP at a
    time as one stacked inverse, and adds them to a running sum.

    An exactly skew-Hermitian X has R(-conj z) = -R(z)^H, and node
    N/2 - k (mod N) is -conj of node k: of each such pair of a level's
    new nodes only the one of smaller k is inverted, and its twin's terms
    (z R)^H and -R^H are added with it.  Nodes k = N/4 and 3N/4, on the
    imaginary axis, are their own twins.
    """
    eye = np.eye(X.shape[0])
    skew = _skew(X)
    total = 0.0
    for N, k, unit in _endpoint_levels(max_nodes):
        if skew:
            twin = (N // 2 - k) % N
            first = k <= twin
            unit, paired = unit[first], (k != twin)[first]
        zs = radius * unit
        for i in range(0, len(zs), _NODE_GROUP):
            z = zs[i:i + _NODE_GROUP, None, None]
            res = np.linalg.inv(X + z * eye)
            zres = z * res
            sums = np.stack([zres.sum(0), res.sum(0)])
            if skew:
                twins = paired[i:i + _NODE_GROUP]
                sums += np.stack([zres[twins].sum(0), -res[twins].sum(0)]).conj().swapaxes(1, 2)
            total = total + sums
            del res, zres  # one group of resolvents in memory at a time
        yield N, total / N


def _contour_quadrature(X, radius, max_nodes=1 << 15):
    """Trapezoidal contour integrals of the projector and the reduced resolvent.

    Returns (pi_plus, r_plus, nodes).  Node count is doubled until the
    projector changes by at most 1e-11 max(1, max|Pi|): an orthogonal
    projector stops at an absolute 1e-11, an ill-conditioned cluster's at
    its own size.  From a norm of about 1e5 the change stalls above the
    bound, and the ConvergenceError reports the last change and |Pi|_F.
    """
    prev, change = None, math.inf
    for N, (pi_p, r_p) in _trapezoid_levels(X, radius, max_nodes):
        if prev is not None:
            change = float(np.abs(pi_p - prev).max())
            if change <= 1e-11 * max(1.0, float(np.abs(pi_p).max())):
                return pi_p, r_p, N
        prev = pi_p
    raise ConvergenceError(
        f"contour quadrature did not converge to 1e-11 max(1, max|Pi|) within {max_nodes} nodes: "
        f"last projector change {change:.1e}, |Pi|_F {np.linalg.norm(prev):.1e}"
    )


def spectral_window(X, radius=None) -> SpectralWindow:
    """Projectors and reduced resolvents at the eigenvalue cluster at 0.

    pi0_plus/r0_plus are integrated from (X + z)^{-1}, whose Laurent
    expansion at 0 is pi0_plus/z + r0_plus + O(z); for skew-adjoint X the
    projector is orthogonal.  One eig of X gives the default radius, the
    clearance of the spectrum outside the contour (W.clearance, relative
    to the radius), the enclosed count and the cross-check projector
    V[:, in] V^-1[in, :].
    The disc |z| < radius must hold a semisimple cluster at 0 and nothing
    else, or the constant Laurent term is no reduced resolvent: an
    enclosed eigenvalue that is nonzero by _zero's rule is a
    ValidationError, and so is an eigennilpotent X Pi with |X Pi|_F >
    1e-8 |X|_F max(1, |Pi|_F).
    """
    X = np.asarray(X, dtype=complex)
    if X.shape[0] != X.shape[1]:
        raise ValidationError("matrix must be square")
    if X.shape[0] == 0:
        raise ValidationError("matrix must not be empty")
    w, V, Vinv, kappa = _eig(X)
    if radius is None:
        radius = _default_radius(X, w, kappa)
    _check_radius(radius)
    mags = np.abs(w)
    dist = np.abs(mags - radius)
    if len(w) and dist.min() < 1e-8 * max(radius, float(mags.max(initial=0.0)), 1e-30):
        raise ValidationError(f"contour |z| = {radius} passes through the spectrum; "
                              f"nearest eigenvalue {w[int(dist.argmin())]}")
    inside = mags < radius
    stray = mags[inside & ~_zero(X, w, kappa)]
    if len(stray):
        raise ValidationError(
            f"window |z| < {radius} encloses {len(stray)} nonzero eigenvalue(s), the "
            f"smallest of modulus {float(stray.min())!r}; the radius must isolate "
            "the cluster at 0"
        )
    pi_p, r_p, nodes = _contour_quadrature(X, radius)
    nilpotent = float(np.linalg.norm(X @ pi_p))
    if nilpotent > 1e-8 * np.linalg.norm(X) * max(1.0, np.linalg.norm(pi_p)):
        raise ValidationError(f"the cluster inside |z| < {radius} is not semisimple at 0: "
                              f"|X Pi|_F = {nilpotent:.3e}")
    cross = (float("nan") if Vinv is None
             else float(np.abs(pi_p - V[:, inside] @ Vinv[inside, :]).max()))
    return SpectralWindow(X, float(radius), pi_p, r_p, nodes, int(inside.sum()), cross,
                          float(dist[~inside].min(initial=math.inf)) / radius)


def default_window_radius(X) -> float:
    """Half the smallest nonzero |eigenvalue| (_default_radius); 1.0 when none."""
    X = np.asarray(X, dtype=complex)
    w, _, _, kappa = _eig(X)
    return _default_radius(X, w, kappa)


def resolvent_identity_check(W: SpectralWindow) -> float:
    """Max Frobenius residual over the resolvent-relation identities (the
    minus convention's are the same up to sign)."""
    X = W.X
    eye = np.eye(X.shape[0], dtype=complex)
    pi_p, r_p = W.pi0_plus, W.r0_plus
    resids = [
        pi_p @ pi_p - pi_p,
        pi_p @ r_p,
        r_p @ pi_p,
        X @ pi_p,
        pi_p @ X,
        X @ r_p - (eye - pi_p),
        r_p @ X - (eye - pi_p),
    ]
    return max(float(np.linalg.norm(R)) for R in resids)


def pi_operator(W: SpectralWindow) -> np.ndarray:
    """The sum of the two reduced resolvents.

    In finite dimension the two Laurent constant terms are exact
    negatives of each other, so this is exactly 0 for every matrix; the
    operator is kept because the identity Pi = r0_plus + r0_minus is the
    object whose positivity carries content in the
    absolutely-continuous-spectrum setting (no finite analogue).
    """
    return W.r0_plus + W.r0_minus


# rows of a (B, rows, n) slab per rank-1 update in _hessenberg
_ROW_BLOCK = 8


def _hessenberg(H):
    """Upper Hessenberg forms Q^H X Q of a complex (B, n, n) stack, in place.

    Column k's entries below the subdiagonal are reflected onto the
    subdiagonal, for every matrix of the stack at once; the similarity is
    unitary, so traces, norms and spectra are those of X.  Each reflector's
    two rank-1 updates are applied _ROW_BLOCK rows at a time, so a
    temporary holds a (B, _ROW_BLOCK, n) slab, not one of the stack's
    size; every entry gets the same product either way.  The form of an
    exactly skew-Hermitian X (_skew) is skew-Hermitian and tridiagonal in
    exact arithmetic, and its entries above the superdiagonal, rounding
    errors of size eps |X| (the reduction's own backward error), are set
    to 0.  H is overwritten by the forms and returned.
    """
    if not np.isfinite(H).all():
        raise ValidationError("matrix entries must be finite")
    n = H.shape[-1]
    skew = [b for b in range(len(H)) if _skew(H[b])]
    for k in range(n - 2):
        x = H[:, k + 1:, k]
        norm = np.linalg.norm(x, axis=1)
        mag = np.abs(x[:, 0])
        # v = x + e^{i arg x_0} |x| e_1 reflects x to -e^{i arg x_0} |x| e_1
        phase = np.where(mag > 0, x[:, 0] / np.where(mag > 0, mag, 1), 1)
        v = x.copy()
        v[:, 0] += phase * norm
        vv = 2 * norm * (norm + mag)  # |v|^2
        tau = np.where(vv > 0, 2 / np.where(vv > 0, vv, 1), 0)
        w = tau[:, None] * (v.conj()[:, None, :] @ H[:, k + 1:, k:])[:, 0]
        for i in range(0, n - k - 1, _ROW_BLOCK):
            rows = slice(k + 1 + i, k + 1 + i + _ROW_BLOCK)
            H[:, rows, k:] -= v[:, i:i + _ROW_BLOCK, None] * w[:, None, :]
        u = tau[:, None] * (H[:, :, k + 1:] @ v[:, :, None])[:, :, 0]
        vh = v.conj()[:, None, :]
        for i in range(0, n, _ROW_BLOCK):
            H[:, i:i + _ROW_BLOCK, k + 1:] -= u[:, i:i + _ROW_BLOCK, None] * vh
        H[:, k + 2:, k] = 0
    if skew:
        i, j = np.triu_indices(n, 2)
        H[np.array(skew)[:, None], i, j] = 0
    return H


def _band(H):
    """The upper bandwidth of a (B, n, n) stack: the largest j - i of a
    nonzero H[b, i, j], 0 when no entry above the diagonal is nonzero."""
    for d in range(H.shape[-1] - 1, 0, -1):
        if np.diagonal(H, d, 1, 2).any():
            return d
    return 0


def _hessenberg_traces(H, z):
    """Tr (H_b + z_bj)^{-1} for a (B, n, n) stack of upper Hessenberg H and
    a (B, m) array of nodes z, one row per matrix.

    Gaussian elimination of H + z needs only the current row and the next
    row of H, pivoting between the two (adjacent-row partial pivoting);
    each new row is carried with its z-derivative, so the diagonal u_kk
    of U comes with u'_kk and Tr (H + z)^{-1} = d/dz log det = sum_k
    u'_kk / u_kk.  Vectorised over (B, m): n steps, on rows stored
    column-major so each step's updates run over contiguous (B, m) slabs,
    in place.  With the stack's upper bandwidth (_band) at most b, the
    current row at step k is 0 past column k + b + 1 (the pivoting fills
    one more column), so a working row holds columns k .. k + b + 1: b + 2
    entries, and a step costs O(B m b), O(B m) for tridiagonal forms.  At
    full width, b + 2 >= n, a row holds columns k .. n - 1 as it shrinks.
    The nodes go through in chunks of at most _TRACE_BUDGET working-row
    entries, on rows allocated once per call.

    A shift singular to working precision (a pivot at most
    n eps (|H_b|_F + |z|)) gets nan: its trace carries no digits.
    Returns (B, m).
    """
    B, n, _ = H.shape
    z = np.asarray(z, dtype=complex)
    m = z.shape[1]
    if n == 0:
        return np.zeros((B, m), dtype=complex)
    width = min(_band(H) + 2, n)
    # a banded row moves on by one column per step, and back to the front of
    # its buffer when it reaches the end; at full width it only shrinks
    span = n if 2 * width >= n else 2 * width
    step = max(1, min(m, _TRACE_BUDGET // max(1, B * span)))
    rows = np.empty((3, span * B * step), dtype=complex)  # current row, its derivative, scratch
    Ht = H.transpose(1, 2, 0)[..., None]  # (n, n, B, 1)
    sub = np.diagonal(H, -1, 1, 2).T[:, :, None]  # (n - 1, B, 1), free of z
    abs_sub = np.abs(sub)
    # |H_b|_F from the real and imaginary parts: no complex temporary of the stack
    frob = np.sqrt(np.einsum("bij,bij->b", H.real, H.real)
                   + np.einsum("bij,bij->b", H.imag, H.imag))
    tr = np.empty((B, m), dtype=complex)
    for i in range(0, m, step):
        zc = z[:, i:i + step]
        cur, dcur, work = (r[:span * zc.size].reshape(span, *zc.shape) for r in rows)
        np.add(Ht[0, :width], 0.0, out=cur[:width])  # row 0 of H + z, columns 0 .. width - 1
        cur[0] += zc
        dcur[:width] = 0  # its z-derivative
        dcur[0] = 1
        tc = np.zeros(zc.shape, dtype=complex)  # the chunk's traces
        least = np.full(zc.shape, np.inf)  # smallest |pivot|
        o = 0  # buffer index of the current row's column k
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(n - 1):
                size = min(width, n - k)  # the current row's columns k .. k + size - 1
                grow = k + width < n  # the next row's column k + width enters, as 0
                if grow and o + width == span:
                    cur[:width] = cur[o:]
                    dcur[:width] = dcur[o:]
                    o = 0
                a, da = cur[o], dcur[o]
                b = sub[k]  # the next row's entry in column k
                abs_a = np.abs(a)
                swap = abs_sub[k] > abs_a
                least = np.minimum(least, np.maximum(abs_a, abs_sub[k]))
                # pivot p and multiplier l; the next row's pivot entry is constant in z
                p = np.where(swap, b, a)
                dp = np.where(swap, 0, da)
                l = np.where(swap, a, b) / p
                dl = (da - dp - l * dp) / p
                tc += dp / p
                # new row = c1 * (current row) + c2 * (next row), past column k
                c1 = np.where(swap, 1, -l)
                c2 = np.where(swap, -l, 1)
                dc1 = np.where(swap, 0, -dl)
                dc2 = np.where(swap, -dl, 0)
                # in place over the tails: the derivative first, while the
                # current row is still unchanged
                row = Ht[k + 1, k + 1:k + size]
                tail, dtail, w = cur[o + 1:o + size], dcur[o + 1:o + size], work[:size - 1]
                np.multiply(c1, dtail, out=dtail)
                dtail += np.multiply(dc1, tail, out=w)
                dtail += np.multiply(dc2, row, out=w)
                dtail[0] += dc2 * zc + c2
                np.multiply(c1, tail, out=tail)
                tail += np.multiply(c2, row, out=w)
                tail[0] += c2 * zc
                if grow:
                    cur[o + size] = 0
                    dcur[o + size] = 0
                o += 1
            tc += dcur[o] / cur[o]
        least = np.minimum(least, np.abs(cur[o]))
        floor = n * np.finfo(float).eps * (frob[:, None] + np.abs(zc))
        tc[~(least > floor)] = np.nan
        tr[:, i:i + step] = tc
    return tr


# complex entries B * m * (row length) of each working row of one chunk of
# _hessenberg_traces: a full-width walk of a group of five kato instances,
# 35 matrices of size 40, takes the new nodes of a level 11 at a time, a
# tridiagonal one (rows of 6 entries in a buffer) 78 at a time
_TRACE_BUDGET = 1 << 14


def _cluster_sums(Xs, radius, max_nodes=1 << 15):
    """(1/2 pi i) contour integral of Tr[z (X_b + z)^{-1}] dz for each X_b of a stack.

    The value is minus the sum of the eigenvalues of X_b inside the
    circle.  Xs is copied before its Hessenberg reduction.  Returns (B,)."""
    _check_radius(radius)
    H = np.array(Xs, dtype=complex)
    if H.ndim != 3 or H.shape[1] != H.shape[2]:
        raise ValidationError("matrix must be square")
    return _hessenberg_sums(_hessenberg(H), np.full(len(H), float(radius)), max_nodes)


def _hessenberg_sums(H, radii, max_nodes=1 << 15):
    """_cluster_sums of the matrices X_b whose Hessenberg forms are the stack
    H, X_b on the circle of radius radii[b].

    Every matrix walks the nested endpoint levels N = 16, 32, ...
    and returns its mean of z^2 Tr (X_b + z)^{-1} over the N nodes at the
    first level within 1e-12 * max(1, |value|) of the previous one; a
    converged matrix, with its Hessenberg form, drops out of later levels,
    and the forms still walking are moved to the front of H in place.
    Each level's new nodes go through one _hessenberg_traces call, at the
    band of the forms still walking.  Every matrix's level sum is taken
    over its own row of nodes, so its value does not depend on the other
    matrices of the stack.  Returns (B,).
    """
    total = np.zeros(len(H), dtype=complex)
    prev = np.zeros_like(total)
    out = np.zeros_like(total)
    active = np.arange(len(H))
    for N, _, unit in _endpoint_levels(max_nodes):
        zs = radii[active, None] * unit
        tr = _hessenberg_traces(H, zs)
        bad = ~np.isfinite(tr)
        if bad.any():
            b, j = np.argwhere(bad)[0]
            raise ValidationError(
                f"contour |z| = {radii[active[b]]} passes through the spectrum; "
                f"singular resolvent at node {zs[b, j]}"
            )
        # integrand Tr[z (resolvent)] times the dz = i z dtheta weight
        total[active] += (tr * (zs * zs)).sum(axis=1)
        vals = total[active] / N
        done = np.zeros(len(active), dtype=bool)
        if N > 16:
            done = np.abs(vals - prev[active]) <= 1e-12 * np.maximum(1.0, np.abs(vals))
            out[active[done]] = vals[done]
        prev[active] = vals
        if done.all():
            return out
        if done.any():  # H holds the Hessenberg forms of the active matrices only
            keep = np.flatnonzero(~done)
            for i, b in enumerate(keep):
                if i != b:
                    H[i] = H[b]
            active, H = active[keep], H[:len(keep)]
    raise ConvergenceError("cluster-sum quadrature did not converge")


def cluster_sum(X, radius) -> complex:
    """lambda^+ = -Tr(X Pi) = sum of the eigenvalues of -X inside the window,
    computed as the trace of the contour integral of z (X+z)^{-1}."""
    return _cluster_sums(np.asarray(X, dtype=complex)[None], radius)[0]


def cluster_sum_minus(X, radius) -> complex:
    """lambda^- = Tr(X Pi_minus), the other resolvent convention.

    Pi_minus = Pi_plus (SpectralWindow.pi0_minus), so lambda^- = -lambda^+."""
    return -cluster_sum(X, radius)


def _closed_derivatives(W: SpectralWindow, P_A):
    """-Tr(P_A Pi_0) and 2 Tr(Pi_0 P_A R_0 P_A Pi_0) from W's window."""
    dot = -np.trace(P_A @ W.pi0_plus)
    ddot = 2 * np.trace(W.pi0_plus @ P_A @ W.r0_plus @ P_A @ W.pi0_plus)
    return dot, ddot


def _fd_stencil(W: SpectralWindow, P_A):
    """(h, the five matrices X + s P_A for s = -2h, -h, 0, h, 2h) of the
    finite-difference derivatives, after checking that h * h does not
    underflow and that the stencil keeps W's cluster strictly inside its contour."""
    X, radius = W.X, W.contour_radius
    h = min(0.05 * radius / max(float(np.linalg.norm(P_A, 2)), 1e-12), 1e-2)
    if h * h < np.finfo(float).tiny:
        raise ValidationError(f"fd step h = {h!r} (radius {radius!r}) underflows h * h")
    # the stencil must keep the cluster strictly inside the contour: the
    # enclosed-eigenvalue count may not change and nothing may touch the circle
    for s in (2 * h, -2 * h):
        evals = np.linalg.eigvals(X + s * P_A)
        dist = np.abs(np.abs(evals) - radius)
        n_inside = int((np.abs(evals) < radius).sum())
        if dist.min() < 1e-6 * radius or n_inside != W.enclosed:
            raise ValidationError(
                "eigenvalue cluster leaves the contour inside the fd stencil; "
                "enlarge the window"
            )
    return h, np.stack([X + s * P_A for s in (-2 * h, -h, 0.0, h, 2 * h)])


def _fd_derivatives(h, sums):
    """Five-point first and second derivatives from the stencil's cluster sums."""
    lm2, lm1, l0, lp1, lp2 = sums
    dot = (-lp2 + 8 * lp1 - 8 * lm1 + lm2) / (12 * h)
    ddot = (-lp2 + 16 * lp1 - 30 * l0 + 16 * lm1 - lm2) / (12 * h * h)
    return dot, ddot


def _conjugation_defect(lam_plus):
    """max_s |conj(lambda_s^-) - lambda_s^+| from the cluster sums of the
    conjugation grid: lambda^- = -lambda^+, so this is 2 max_s |Re lambda_s^+|."""
    return 2 * float(np.abs(lam_plus.real).max(initial=0.0))


def lambda_derivatives(W: SpectralWindow, P_A):
    """Closed-form and finite-difference derivatives of the window eigenvalue sum.

    W is the window of X; lambda(s) = -Tr((X + s P_A) Pi_s) with Pi_s the
    projector of X + s P_A on W's contour; the closed forms are -Tr(P_A Pi_0)
    and 2 Tr(Pi_0 P_A R_0 P_A Pi_0), the finite differences the five-point
    ones of the cluster sums of _fd_stencil's matrices.  The first four
    entries of a one-item perturbation_suite call with an empty grid:
    (dot_closed, ddot_closed, dot_fd, ddot_fd).
    """
    return perturbation_suite([(W, P_A, P_A)], [])[0][:4]


def conjugation_check(X, P_A, s_grid, radius) -> float:
    """max_s |conj(lambda_s^-) - lambda_s^+| over the grid, X_s = X + s P_A,
    on the circle |z| = radius.

    lambda^- = -lambda^+ (cluster_sum_minus), so the defect is 2 max_s
    |Re lambda_s^+|: 0 when every X_s holds an imaginary window sum, as a
    skew-adjoint X_s does.
    """
    X = np.asarray(X, dtype=complex)
    P_A = np.asarray(P_A, dtype=complex)
    s = np.asarray(list(s_grid)).reshape(-1, 1, 1)
    return _conjugation_defect(_cluster_sums(X + s * P_A, radius))


# complex entries of one perturbation_suite stack (1 MiB): five kato instances
# of size 40; an item with more rows than that makes a stack of its own
_GROUP_ENTRIES = 1 << 16


def perturbation_suite(items, s_grid, bands=None):
    """The closed-form and five-point derivatives of lambda_derivatives(W,
    P_A) and the defect of conjugation_check(W.X, conj_P_A, s_grid,
    W.contour_radius) for every (W, P_A, conj_P_A) of items, which may be
    a generator that draws one instance at a time.

    Each item writes its five stencil matrices (_fd_stencil) and its
    grid's X_s at s != 0 into one stack of matrices of its size, of at
    most max(one item's rows, _GROUP_ENTRIES entries), and no more rows
    than the items left need when items has a length, allocated once per
    size, and is dropped; a grid point s = 0 is the stencil's centre
    X, whose sum it reuses.  When the stack has no room for another item,
    or the next item's size differs, it is reduced to Hessenberg form in
    place, walked by one _hessenberg_sums call and refilled.  Each
    matrix's sum is taken on its own, so an item's results do not depend
    on the other items, and its defect equals conjugation_check's bit for
    bit.  A later item's stencil or window error can surface before an
    earlier item's walk error.  When bands is a list, each walk appends
    the upper bandwidth of its stack's forms (_band; 1 for the
    tridiagonal forms of skew-Hermitian matrices).  Returns one
    (dot_closed, ddot_closed, dot_fd, ddot_fd, conj_defect) per item, in
    order.
    """
    s = np.asarray(list(s_grid))
    centre = (s == 0).any()
    grid = s[s != 0].reshape(-1, 1, 1)
    rows = 5 + len(grid)
    stack, used, meta, results = None, 0, [], []

    def walk():  # the cluster sums of the stack's first `used` rows
        nonlocal used
        H = _hessenberg(stack[:used])
        if bands is not None:
            bands.append(_band(H))
        sums = _hessenberg_sums(H, radii[:used])
        for (closed, h), row in zip(meta, sums.reshape(len(meta), rows)):
            lam_plus = np.concatenate([row[5:], row[2:3] if centre else []])
            results.append((*closed, *_fd_derivatives(h, row[:5]),
                            _conjugation_defect(lam_plus)))
        used = 0
        meta.clear()

    for i, (W, P_A, conj_P_A) in enumerate(items):
        if meta and stack.shape[1:] != W.X.shape:
            walk()
        if stack is None or stack.shape[1:] != W.X.shape:
            size = max(rows, _GROUP_ENTRIES // max(1, W.X.size))
            if hasattr(items, "__len__"):
                size = min(size, (len(items) - i) * rows)
            stack, radii = np.empty((size, *W.X.shape), dtype=complex), np.empty(size)
        P_A = np.asarray(P_A, dtype=complex)
        h, stencil = _fd_stencil(W, P_A)
        stack[used:used + 5] = stencil
        stack[used + 5:used + rows] = W.X + grid * np.asarray(conj_P_A, dtype=complex)
        radii[used:used + rows] = W.contour_radius
        meta.append((_closed_derivatives(W, P_A), h))
        used += rows
        del W, P_A, conj_P_A, stencil
        if used + rows > len(stack):
            walk()
    if meta:
        walk()
    return results


def random_skew_adjoint_with_kernel(rng, dim, kernel_dim, gap=0.5, spread=5.0):
    """Random skew-adjoint matrix with a planted kernel and a spectral gap.

    M = Q diag(evals) Q^H, Q a random unitary, evals dim - kernel_dim
    values i s (gap + spread u), s = +-1 and u uniform in [0, 1), and
    kernel_dim zeros; the matrix returned is (M - M^H) / 2, which is
    exactly skew-Hermitian (X == -X^H bit for bit) and within rounding of M,
    so the contour quadratures of `spectral` take its structure."""
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    if kernel_dim < 0:
        raise ValidationError(f"kernel_dim must be >= 0, got {kernel_dim}")
    if kernel_dim > dim:
        raise ValidationError("kernel_dim exceeds dim")
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    n_nonzero = dim - kernel_dim
    mags = gap + spread * rng.random(n_nonzero)
    signs = np.where(rng.random(n_nonzero) < 0.5, -1.0, 1.0)
    evals = np.concatenate([np.zeros(kernel_dim), 1j * mags * signs])
    M = (Q * evals) @ Q.conj().T
    return (M - M.conj().T) / 2
