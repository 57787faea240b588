"""Finite-dimensional resolvent calculus around an eigenvalue cluster at 0.

The spectral window of a matrix X holds the Riesz projectors of both
resolvent conventions, (X + z)^{-1} and (z - X)^{-1}, together with the
constant Laurent terms (reduced resolvents) at z = 0.  Projectors and
reduced resolvents are computed by trapezoidal contour quadrature with
node doubling, which converges geometrically for analytic integrands,
and cross-checked against the eigendecomposition route.  The nodes are
the endpoint nodes radius exp(2 pi i k / N), which nest under doubling:
each refinement inverts only the N/2 new nodes, a few at a time as one
stacked inverse, and adds them to a running sum.

The window radius must isolate the cluster at 0: the quadrature for the
Laurent constant term reads off the residue at z = 0 and is only the
reduced resolvent when no other eigenvalue sits inside the circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ValidationError

__all__ = [
    "SpectralWindow",
    "spectral_window",
    "eigenprojector_sum",
    "resolvent_identity_check",
    "pi_operator",
    "cluster_sum",
    "cluster_sum_minus",
    "lambda_derivatives",
    "conjugation_check",
    "default_window_radius",
    "random_skew_adjoint_with_kernel",
]


@dataclass
class SpectralWindow:
    X: np.ndarray
    contour_radius: float
    pi0_plus: np.ndarray
    pi0_minus: np.ndarray
    r0_plus: np.ndarray
    r0_minus: np.ndarray
    quadrature_nodes: int
    eig_crosscheck: float = field(default=float("nan"))


def _check_contour_clear(X, radius):
    evals = np.linalg.eigvals(X)
    if len(evals) == 0:
        return evals
    dist = np.abs(np.abs(evals) - radius)
    scale = max(radius, float(np.abs(evals).max()), 1e-30)
    if dist.min() < 1e-8 * scale:
        nearest = evals[int(dist.argmin())]
        raise ValidationError(
            f"contour |z| = {radius} passes through the spectrum; "
            f"nearest eigenvalue {nearest}"
        )
    return evals


# nodes per stacked inverse: a whole level at once would hold every
# resolvent of the level in memory
_NODE_GROUP = 4


def _check_radius(radius):
    if not (math.isfinite(radius) and radius > 0):
        raise ValidationError(f"contour radius must be finite and > 0, got {radius}")


def _trapezoid_levels(radius, group_sum, max_nodes=1 << 15):
    """Yield (N, mean of the integrand over the N endpoint nodes), N = 16, 32, ...

    The nodes z_k = radius exp(2 pi i k / N) nest under doubling, so each
    level evaluates only the N/2 nodes the previous level lacks (odd k) and
    adds them to a running sum.  group_sum(z) returns the integrand summed
    over a 1-d array z of at most _NODE_GROUP nodes.
    """
    N = 16
    k = np.arange(N)
    total = 0.0
    while N <= max_nodes:
        zs = radius * np.exp(2j * math.pi * k / N)
        for i in range(0, len(zs), _NODE_GROUP):
            total = total + group_sum(zs[i:i + _NODE_GROUP])
        yield N, total / N
        N *= 2
        k = np.arange(1, N, 2)


def _window_group_sum(X):
    """group_sum of the window integrands z R(z), R(z) for both resolvents R.

    The trapezoidal mean of z R(z) over the circle is the Riesz projector
    (the dz = i z dtheta weight turns 1/z into 1), that of R(z) the
    Laurent constant term at 0.  Stacked as (pi_plus, r_plus, pi_minus,
    r_minus) for the nodes z.
    """
    eye = np.eye(X.shape[0])

    def group_sum(z):
        z = z[:, None, None]
        res_p = np.linalg.inv(X + z * eye)
        res_m = np.linalg.inv(z * eye - X)
        return np.stack([(z * res_p).sum(0), res_p.sum(0), (z * res_m).sum(0), res_m.sum(0)])

    return group_sum


def _contour_quadrature(X, radius, tol=1e-11, max_nodes=1 << 15):
    """Trapezoidal contour integrals of the four window quantities at once.

    Returns (pi_plus, r_plus, pi_minus, r_minus, nodes).  Node count is
    doubled until the projector stops changing by more than tol.
    """
    prev = None
    levels = _trapezoid_levels(radius, _window_group_sum(X), max_nodes)
    for N, (pi_p, r_p, pi_m, r_m) in levels:
        if prev is not None and np.abs(pi_p - prev).max() <= tol:
            return pi_p, r_p, pi_m, r_m, N
        prev = pi_p
    raise ConvergenceError(
        f"contour quadrature did not converge to {tol} within {max_nodes} nodes"
    )


def eigenprojector_sum(X, radius):
    """Riesz projector onto eigenvalues inside |z| < radius, via eig."""
    evals, V = np.linalg.eig(X)
    inside = np.abs(evals) < radius
    Vinv = np.linalg.inv(V)
    return V[:, inside] @ Vinv[inside, :]


def spectral_window(X, radius=None, tol=1e-11) -> SpectralWindow:
    """Projectors and reduced resolvents at the eigenvalue cluster inside |z| < radius.

    Both resolvent conventions are integrated: pi0_plus/r0_plus from
    (X + z)^{-1} (whose Laurent expansion at 0 is pi0_plus/z + r0_plus + O(z))
    and pi0_minus/r0_minus from (z - X)^{-1}.  For skew-adjoint X the two
    projectors agree and are orthogonal.
    """
    X = np.asarray(X, dtype=complex)
    if X.shape[0] != X.shape[1]:
        raise ValidationError("matrix must be square")
    if radius is None:
        radius = default_window_radius(X)
    _check_radius(radius)
    _check_contour_clear(X, radius)
    pi_p, r_p, pi_m, r_m, nodes = _contour_quadrature(X, radius, tol)
    try:
        cross = float(np.abs(pi_p - eigenprojector_sum(X, radius)).max())
    except np.linalg.LinAlgError:
        cross = float("nan")
    return SpectralWindow(X, float(radius), pi_p, pi_m, r_p, r_m, nodes, cross)


def default_window_radius(X) -> float:
    """Half the smallest nonzero |eigenvalue|; 1.0 when the matrix is nilpotent-at-0."""
    evals = np.abs(np.linalg.eigvals(np.asarray(X, dtype=complex)))
    scale = evals.max() if len(evals) else 0.0
    nonzero = evals[evals > max(1e-12 * scale, 1e-300)]
    if len(nonzero) == 0:
        return 1.0
    return float(nonzero.min()) / 2


def resolvent_identity_check(W: SpectralWindow) -> float:
    """Max Frobenius residual over the resolvent-relation identities."""
    X = W.X
    eye = np.eye(X.shape[0], dtype=complex)
    pi_p, pi_m, r_p, r_m = W.pi0_plus, W.pi0_minus, W.r0_plus, W.r0_minus
    resids = [
        pi_p @ pi_p - pi_p,
        pi_m @ pi_m - pi_m,
        pi_p @ r_p,
        r_p @ pi_p,
        pi_m @ r_m,
        r_m @ pi_m,
        X @ pi_p,
        pi_p @ X,
        X @ pi_m,
        pi_m @ X,
        X @ r_p - (eye - pi_p),
        r_p @ X - (eye - pi_p),
        -X @ r_m - (eye - pi_m),
        -r_m @ X - (eye - pi_m),
    ]
    return max(float(np.linalg.norm(R)) for R in resids)


def pi_operator(W: SpectralWindow) -> np.ndarray:
    """The sum of the two reduced resolvents.

    In finite dimension the two Laurent constant terms are exact
    negatives of each other, so this vanishes for every matrix; the
    operator is kept because the identity Pi = r0_plus + r0_minus is the
    object whose positivity carries content in the
    absolutely-continuous-spectrum setting (no finite analogue).
    """
    return W.r0_plus + W.r0_minus


def _contour_trace(X, radius, sign, tol=1e-12):
    """(1/2 pi i) contour integral of Tr[z * resolvent(z)] dz.

    sign=+1 uses (X + z)^{-1} (value -sum of enclosed eigenvalues of X),
    sign=-1 uses (z - X)^{-1} (value +sum of enclosed eigenvalues).
    """
    _check_radius(radius)
    X = np.asarray(X, dtype=complex)
    eye = np.eye(X.shape[0])

    def group_sum(z):
        A = z[:, None, None] * eye
        A = A + X if sign > 0 else A - X
        # integrand Tr[z (resolvent)] times the dz = i z dtheta weight
        return (z * z * np.trace(np.linalg.inv(A), axis1=1, axis2=2)).sum()

    prev = None
    for _, val in _trapezoid_levels(radius, group_sum):
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            return val
        prev = val
    raise ConvergenceError("cluster-sum quadrature did not converge")


def cluster_sum(X, radius, tol=1e-12) -> complex:
    """lambda^+ = -Tr(X Pi) = sum of the eigenvalues of -X inside the window,
    computed as the trace of the contour integral of z (X+z)^{-1}."""
    return _contour_trace(X, radius, +1, tol)


def cluster_sum_minus(X, radius, tol=1e-12) -> complex:
    """lambda^- = Tr(X Pi_minus), the other resolvent convention."""
    return _contour_trace(X, radius, -1, tol)


def lambda_derivatives(W: SpectralWindow, P_A, fd_step=None):
    """Closed-form and finite-difference derivatives of the window eigenvalue sum.

    W is the window of X; lambda(s) = -Tr((X + s P_A) Pi_s) with Pi_s the
    projector of X + s P_A on W's contour; the closed forms are -Tr(P_A Pi_0)
    and 2 Tr(Pi_0 P_A R_0 P_A Pi_0).  Returns (dot_closed, ddot_closed,
    dot_fd, ddot_fd).
    """
    X, radius = W.X, W.contour_radius
    P_A = np.asarray(P_A, dtype=complex)
    dot_closed = -np.trace(P_A @ W.pi0_plus)
    ddot_closed = 2 * np.trace(W.pi0_plus @ P_A @ W.r0_plus @ P_A @ W.pi0_plus)

    pa_norm = float(np.linalg.norm(P_A, 2))
    if fd_step is None:
        fd_step = min(0.05 * radius / max(pa_norm, 1e-12), 1e-2)
    h = fd_step
    # the stencil must keep the cluster strictly inside the contour: the
    # enclosed-eigenvalue count may not change and nothing may touch the circle
    n_inside_0 = int((np.abs(np.linalg.eigvals(X)) < radius).sum())
    for s in (2 * h, -2 * h):
        evals = np.linalg.eigvals(X + s * P_A)
        dist = np.abs(np.abs(evals) - radius)
        n_inside = int((np.abs(evals) < radius).sum())
        if dist.min() < 1e-6 * radius or n_inside != n_inside_0:
            raise ValidationError(
                "eigenvalue cluster leaves the contour inside the fd stencil; "
                "reduce fd_step or enlarge the window"
            )
    lam = {s: cluster_sum(X + s * P_A, radius) for s in
           (-2 * h, -h, 0.0, h, 2 * h)}
    dot_fd = (-lam[2 * h] + 8 * lam[h] - 8 * lam[-h] + lam[-2 * h]) / (12 * h)
    ddot_fd = (
        -lam[2 * h] + 16 * lam[h] - 30 * lam[0.0] + 16 * lam[-h] - lam[-2 * h]
    ) / (12 * h * h)
    return dot_closed, ddot_closed, dot_fd, ddot_fd


def conjugation_check(X, P_A, s_grid, radius=None) -> float:
    """max_s |conj(lambda_s^-) - lambda_s^+| over the grid."""
    X = np.asarray(X, dtype=complex)
    P_A = np.asarray(P_A, dtype=complex)
    if radius is None:
        radius = default_window_radius(X)
    worst = 0.0
    for s in s_grid:
        Xs = X + s * P_A
        lp = cluster_sum(Xs, radius)
        lm = cluster_sum_minus(Xs, radius)
        worst = max(worst, abs(np.conj(lm) - lp))
    return worst


def random_skew_adjoint_with_kernel(rng, dim, kernel_dim, gap=0.5, spread=5.0):
    """Random skew-adjoint matrix with a planted kernel and a spectral gap."""
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
    return (Q * evals) @ Q.conj().T
