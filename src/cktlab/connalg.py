"""Connection-form multiplication on twisted harmonics and the
commutator algebra on the endomorphism fiber.

A connection form here is Gamma(v) at one point: a constant
`torus.FourierConnection`, whose only mode is 0, assigns a matrix to each
coordinate direction.  Multiplying a twisted harmonic by it raises and
lowers the harmonic degree by one.  The lowering part has the closed
formula

    minus = (n + 2(m-1))^{-1} sum_j Gamma_j (d_j applied fiberwise),

with the commutator action replacing left multiplication on the
endomorphism fiber.  The module also factors trace-free skew-Hermitian
matrices as commutators and builds the pairing witness that makes the
second-variation functional strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .linalg import nullspace
from .polyharm import (
    HPoly,
    _dual_matrix,
    _neighbour_rows,
    _radial_rows,
    bombieri_inner,
    bombieri_norm,
    harmonic_antiderivative,
    harmonic_basis,
    laplace,
    radial_squared,
    sphere_inner,
)
from .torus import FourierConnection

__all__ = [
    "TwistedHarmonic",
    "gamma_split",
    "gamma_minus_matrix",
    "GammaMinusReport",
    "solve_gamma_preimage",
    "commutator_factor",
    "endo_split",
    "trace_end",
    "trace_sym",
    "adjoint_end",
    "endo_pairing_witness",
    "skew_hermitian_basis",
    "harmonic_mult_blocks",
    "commutator_action_matrix",
    "is_skew_hermitian",
    "twisted_sphere_inner",
]


def is_skew_hermitian(M, tol=1e-12) -> bool:
    """M^H = -M within tol * max(1, max|M|); a non-finite entry fails."""
    M = np.asarray(M)
    return bool(np.isfinite(M).all()
                and np.abs(M + M.conj().T).max() <= tol * max(1.0, np.abs(M).max()))


def _fiber_values(conn: FourierConnection) -> np.ndarray:
    """The stack Gamma(e_j), (n, r, r), of a connection form whose only mode is 0."""
    if conn.n is None or conn.r is None:
        raise ValidationError("connection form must determine its torus dimension and fiber rank")
    for q in conn.coeffs:
        if any(q):
            raise ValidationError(f"connection form must be constant, got mode {q}")
    return conn.value_at(np.zeros(conn.n), np.eye(conn.n))


@dataclass(frozen=True)
class TwistedHarmonic:
    """Element of (harmonic degree-m polynomials) tensor a fiber C^f.

    columns[k] is the polynomial in front of the k-th fiber basis vector.
    For endomorphism fibers f = r^2 and entry (i, j) sits at k = i*r + j.
    """

    n: int
    m: int
    columns: tuple

    def __post_init__(self):
        cols = tuple(self.columns)
        object.__setattr__(self, "columns", cols)
        for c in cols:
            if not isinstance(c, HPoly) or c.n != self.n or c.m != self.m:
                raise ValidationError("columns must be HPoly of matching (n, m)")

    def check_harmonic(self, tol=1e-10):
        """Raise unless every column is harmonic relative to the element's scale.

        Arithmetic on twisted harmonics can produce numerically tiny
        elements made of roundoff, so this is a boundary check that the
        public operations run on their inputs, not a constructor
        invariant.
        """
        scale = max((c.max_abs_coeff() for c in self.columns), default=0.0)
        if scale:
            bound = tol * scale * max(1, self.m) ** 2
            for c in self.columns:
                if laplace(c).max_abs_coeff() > bound:
                    raise ValidationError("columns must be harmonic")
        return self

    @property
    def fiber_dim(self):
        return len(self.columns)

    @classmethod
    def zero(cls, n, m, fdim):
        return cls(n, m, tuple(HPoly.zero(n, m) for _ in range(fdim)))

    @classmethod
    def from_matrix_entries(cls, n, m, entries):
        """Endomorphism-fiber element from an r x r array of HPoly."""
        r = len(entries)
        cols = [entries[i][j] for i in range(r) for j in range(r)]
        return cls(n, m, tuple(cols))

    def entry(self, i, j, r):
        return self.columns[i * r + j]

    def __add__(self, other):
        if (other.n, other.m, other.fiber_dim) != (self.n, self.m, self.fiber_dim):
            raise ValidationError("operands must share (n, m, fiber)")
        return TwistedHarmonic(
            self.n, self.m, tuple(a + b for a, b in zip(self.columns, other.columns))
        )

    def __mul__(self, scalar):
        return TwistedHarmonic(self.n, self.m, tuple(c * scalar for c in self.columns))

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + other * (-1)

    def norm_bombieri(self) -> float:
        return math.sqrt(sum(abs(bombieri_inner(c, c)) for c in self.columns))


def twisted_sphere_inner(u: TwistedHarmonic, w: TwistedHarmonic):
    """Fiberwise sum of sphere-L2 inner products (degrees may differ)."""
    if u.n != w.n or u.fiber_dim != w.fiber_dim:
        raise ValidationError("operands must share (n, fiber)")
    return sum(sphere_inner(a, b) for a, b in zip(u.columns, w.columns))


def _split_with_matrices(fiber_mats, f: TwistedHarmonic):
    """Common core of gamma_split / endo_split.

    fiber_mats[j] is the fdim x fdim matrix by which the j-th coordinate
    direction acts on the fiber.  Returns (plus, minus) with
    (Gamma f)(v) = plus(v) + |v|^2 minus(v), both harmonic.
    """
    n, m, fdim = f.n, f.m, f.fiber_dim
    # full product (degree m+1): out_i = sum_j v_j sum_k mat_j[i,k] f_k
    prod_cols = [HPoly.zero(n, m + 1) for _ in range(fdim)]
    for j in range(n):
        mat = fiber_mats[j]
        vj = HPoly.variable(n, j)
        for i in range(fdim):
            acc = HPoly.zero(n, m)
            for k in range(fdim):
                if mat[i, k] != 0:
                    acc = acc + f.columns[k] * mat[i, k]
            if acc.coeffs:
                prod_cols[i] = prod_cols[i] + vj * acc
    if m == 0:
        minus = TwistedHarmonic.zero(n, -1, fdim)
        plus = TwistedHarmonic(n, m + 1, tuple(prod_cols))
        return plus, minus
    denom = n + 2 * (m - 1)
    minus_cols = []
    for i in range(fdim):
        acc = HPoly.zero(n, m - 1)
        for j in range(n):
            mat = fiber_mats[j]
            for k in range(fdim):
                if mat[i, k] != 0:
                    acc = acc + f.columns[k].deriv(j) * mat[i, k]
        minus_cols.append(acc / denom)
    r2 = radial_squared(n)
    plus_cols = [p - r2 * b for p, b in zip(prod_cols, minus_cols)]
    return (
        TwistedHarmonic(n, m + 1, tuple(plus_cols)),
        TwistedHarmonic(n, m - 1, tuple(minus_cols)),
    )


def gamma_split(G: FourierConnection, f: TwistedHarmonic):
    """Split Gamma(v) f(v) into harmonic parts of degree m+1 and m-1.

    Reconstruction (Gamma f)(v) = plus(v) + |v|^2 minus(v) is exact; the
    lowering part is the closed formula
    (n+2(m-1))^{-1} sum_{j,k} (Gamma_j)_{.k} d_j f_k.
    """
    gammas = _fiber_values(G)
    if G.n != f.n:
        raise ValidationError("connection form and harmonic must share n")
    if G.r != f.fiber_dim:
        raise ValidationError(f"fiber mismatch: form has r={G.r}, element has {f.fiber_dim}")
    f.check_harmonic()
    return _split_with_matrices(gammas, f)


def commutator_action_matrix(A: np.ndarray) -> np.ndarray:
    """Matrix of W -> [A, W] on row-major vectorized r x r fibers."""
    r = A.shape[0]
    eye = np.eye(r)
    return np.kron(A, eye) - np.kron(eye, A.T)


def endo_split(A: FourierConnection, u: TwistedHarmonic):
    """gamma_split with the fiber action replaced by the commutator.

    u lives over the endomorphism fiber (dimension r^2, row-major); the
    product being split is A(v) u(v) - u(v) A(v).
    """
    gammas = _fiber_values(A)
    if A.n != u.n:
        raise ValidationError("connection form and harmonic must share n")
    if A.r * A.r != u.fiber_dim:
        raise ValidationError(
            f"fiber mismatch: form has r={A.r}, element has fiber {u.fiber_dim} != r^2"
        )
    u.check_harmonic()
    mats = [commutator_action_matrix(g) for g in gammas]
    return _split_with_matrices(mats, u)


@lru_cache(maxsize=None)
def harmonic_mult_blocks(n: int, m: int):
    """Per-direction raising/lowering matrices of multiplication by v_j.

    Returns (plus_blocks, minus_blocks): plus_blocks[j] maps H_m -> H_{m+1}
    and minus_blocks[j] maps H_m -> H_{m-1}, in the sphere-orthonormal
    harmonic bases.  Multiplication by a 1-form sum_j eta_j v_j then has
    raising matrix sum_j eta_j plus_blocks[j].

    Each block is a product in polyharm's monomial coordinates: with Q the
    basis coefficients, G the moment Gram, S_j, D_j and R multiplication
    by v_j, d_j and |v|^2, and c = n + 2m - 2,

        minus_j = Q_{m-1}^T G D_j Q_m / c,
        plus_j  = Q_{m+1}^T G (S_j - R D_j / c) Q_m,

    the split v_j u = plus + |v|^2 minus of `gamma_split`.  S_j Q, D_j Q
    and R (D_j Q / c) are row gathers from polyharm's neighbour table, with
    the values of the matrix products.
    """
    Q = harmonic_basis(n, m).Q
    raised = _neighbour_rows(n, m, 1, Q, lambda e: 1.0)
    dual_p = _dual_matrix(n, m + 1)
    if m == 0:
        plus = tuple(dual_p @ SQ for SQ in raised)
        return plus, tuple(np.zeros((0, Q.shape[1]), dtype=complex) for _ in range(n))
    dual_l = _dual_matrix(n, m - 1)
    lowered = _neighbour_rows(n, m, -1, Q, lambda e: e) / (n + 2 * (m - 1))
    plus = tuple(dual_p @ (SQ - _radial_rows(n, m - 1, L)) for SQ, L in zip(raised, lowered))
    minus = tuple(dual_l @ L for L in lowered)
    return plus, minus


@dataclass(frozen=True)
class GammaMinusReport:
    matrix: np.ndarray
    rank: int
    nullity: int
    singular_values: np.ndarray = field(repr=False)


def gamma_minus_matrix(G: FourierConnection, n: int, m: int) -> GammaMinusReport:
    """Matrix of the lowering map on H_m tensor C^r, with rank/nullity via SVD."""
    gammas = _fiber_values(G)
    if m < 1:
        raise ValidationError("lowering map needs m >= 1")
    if G.n != n:
        raise ValidationError("connection form dimension mismatch")
    _, minus_blocks = harmonic_mult_blocks(n, m)
    r = G.r
    h_lo = minus_blocks[0].shape[0]
    h_m = minus_blocks[0].shape[1]
    M = np.zeros((h_lo * r, h_m * r), dtype=complex)
    for j in range(n):
        M += np.kron(minus_blocks[j], gammas[j])
    null, s = nullspace(M, 1e-10)
    return GammaMinusReport(M, M.shape[1] - null.shape[1], null.shape[1], s)


def solve_gamma_preimage(u: TwistedHarmonic):
    """Find a diagonal skew-Hermitian form G and w with lowering(G, w) = u.

    Uses the constructive recipe: G(v) = diag(i v_1, ..., i v_1) and each
    fiber component of w solves d_1 w_k = -i (n + 2m) u_k inside the
    harmonic polynomials of degree m+1 (n >= 3).
    """
    n, m, r = u.n, u.m, u.fiber_dim
    if n < 3:
        raise ValidationError("preimage construction requires n >= 3")
    gam = FourierConnection.cosine_mode(n, (0,) * n, 0, 1j * np.eye(r))
    if all(c.is_zero() for c in u.columns):
        return gam, TwistedHarmonic.zero(n, m + 1, r)
    c = -1j * (n + 2 * m)
    cols = []
    for uk in u.columns:
        if uk.is_zero(0.0) or not uk.coeffs:
            cols.append(HPoly.zero(n, m + 1))
        else:
            cols.append(harmonic_antiderivative(uk, 0, c))
    w = TwistedHarmonic(n, m + 1, tuple(cols))
    return gam, w


def commutator_factor(u, tol=1e-9):
    """Write a trace-free skew-Hermitian u as [A, G] with A, G skew-Hermitian.

    Follows the constructive induction: find a unit vector on which the
    quadratic form of u vanishes (bisection along the arc between the top
    and bottom eigenvectors of -iu), split off the first row/column,
    recurse, and solve (A' - i lambda) S = X with lambda beyond the
    spectral radius of A'.
    """
    u = np.asarray(u, dtype=complex)
    r = u.shape[0]
    if r == 0:
        raise ValidationError("cannot factor an empty matrix")
    if not is_skew_hermitian(u, tol):
        raise ValidationError("input is not skew-Hermitian at tolerance")
    if abs(np.trace(u)) > tol * max(1.0, np.abs(u).max()) * r:
        raise ValidationError("input is not trace-free at tolerance")
    A, G = _factor_rec(u)
    A = (A - A.conj().T) / 2
    G = (G - G.conj().T) / 2
    return A, G


def _factor_rec(u):
    r = u.shape[0]
    if r == 1 or np.abs(u).max() < 1e-15:
        return np.zeros((r, r), dtype=complex), np.zeros((r, r), dtype=complex)
    H = -1j * u  # Hermitian, trace ~ 0
    evals, evecs = np.linalg.eigh(H)
    x_hi, x_lo = evecs[:, -1], evecs[:, 0]
    # g(t) = <H x(t), x(t)> moves continuously from the top to the bottom
    # eigenvalue along the arc; bisect for the zero crossing
    def g(t):
        x = math.cos(t) * x_hi + math.sin(t) * x_lo
        return float(np.real(x.conj() @ (H @ x)))

    lo, hi = 0.0, math.pi / 2
    glo = g(lo)
    for _ in range(80):
        mid = (lo + hi) / 2
        gm = g(mid)
        if (gm > 0) == (glo > 0):
            lo, glo = mid, gm
        else:
            hi = mid
    t0 = (lo + hi) / 2
    x0 = math.cos(t0) * x_hi + math.sin(t0) * x_lo
    x0 /= np.linalg.norm(x0)

    Q, _ = np.linalg.qr(np.column_stack([x0, np.eye(r)]))
    ut = Q.conj().T @ u @ Q
    ut[0, 0] = 0.0  # bisection residual, at rounding level
    X = ut[1:, 0].copy()
    up = ut[1:, 1:].copy()
    up -= (np.trace(up) / (r - 1)) * np.eye(r - 1)
    up = (up - up.conj().T) / 2
    Ap, Gp = _factor_rec(up)
    lam = float(np.abs(np.linalg.eigvalsh(-1j * Ap)).max()) + 1.0 if r > 1 else 1.0
    S = np.linalg.solve(Ap - 1j * lam * np.eye(r - 1), X)
    A = np.zeros((r, r), dtype=complex)
    A[0, 0] = 1j * lam
    A[1:, 1:] = Ap
    G = np.zeros((r, r), dtype=complex)
    G[0, 1:] = -S.conj()
    G[1:, 0] = S
    G[1:, 1:] = Gp
    return Q @ A @ Q.conj().T, Q @ G @ Q.conj().T


def trace_end(u: TwistedHarmonic, r: int) -> HPoly:
    """Fiber trace of an endomorphism-fiber element: sum of diagonal entries."""
    if u.fiber_dim != r * r:
        raise ValidationError("fiber dimension must be r^2")
    out = HPoly.zero(u.n, u.m)
    for i in range(r):
        out = out + u.entry(i, i, r)
    return out


def trace_sym(tensors):
    """Tensor trace applied to each fiber component of a twisted tensor."""
    from .symtensor import trace as st_trace

    return [st_trace(t) for t in tensors]


def adjoint_end(u: TwistedHarmonic, r: int) -> TwistedHarmonic:
    """Pointwise fiber adjoint: entry (i, j) becomes conj(entry (j, i))."""
    if u.fiber_dim != r * r:
        raise ValidationError("fiber dimension must be r^2")
    cols = [u.entry(j, i, r).conj() for i in range(r) for j in range(r)]
    return TwistedHarmonic(u.n, u.m, tuple(cols))


@lru_cache(maxsize=None)
def skew_hermitian_basis(r: int) -> tuple:
    """Frobenius-orthonormal real basis of trace-free skew-Hermitian r x r matrices.

    Generalized Gell-Mann convention times i: for each pair i < j one
    'symmetric' and one 'antisymmetric' generator, then the diagonal
    ladder, r^2 - 1 matrices in total.
    """
    out = []
    for i in range(r):
        for j in range(i + 1, r):
            S = np.zeros((r, r), dtype=complex)
            S[i, j] = S[j, i] = 1j / math.sqrt(2)
            out.append(S)
            Aa = np.zeros((r, r), dtype=complex)
            Aa[i, j] = 1 / math.sqrt(2)
            Aa[j, i] = -1 / math.sqrt(2)
            out.append(Aa)
    for k in range(1, r):
        D = np.zeros((r, r), dtype=complex)
        for i in range(k):
            D[i, i] = 1j
        D[k, k] = -1j * k
        out.append(D / math.sqrt(k * (k + 1)))
    return tuple(out)


def endo_components(u: TwistedHarmonic, r: int):
    """Coefficients p_i of u over the skew-Hermitian basis, as polynomials."""
    basis = skew_hermitian_basis(r)
    comps = []
    for s in basis:
        p = HPoly.zero(u.n, u.m)
        for i in range(r):
            for j in range(r):
                c = s[i, j].conjugate()
                if c != 0:
                    p = p + u.entry(i, j, r) * c
        comps.append(p)
    return comps


def endo_pairing_witness(u: TwistedHarmonic, r: int):
    """Witness (A, w, pairing) with pairing = <u, lowering(A, w)> = ||p_i||^2 > 0.

    The input must be su(r)-valued (trace-free, skew-Hermitian fiber) and
    nonzero.  The witness targets the largest-norm component p_i of u over
    the orthonormal skew-Hermitian basis: the fiber part solves
    [A_1, w_tilde] = s_i by commutator factorization and the polynomial
    part solves d_1 f = (n + 2m) p_i, so that the lowering of A = A_1 e_1*
    applied to w = f tensor w_tilde reproduces p_i tensor s_i exactly.
    """
    n, m = u.n, u.m
    if n < 3:
        raise ValidationError("pairing witness requires n >= 3")
    if u.fiber_dim != r * r:
        raise ValidationError("fiber dimension must be r^2")
    scale = u.norm_bombieri()
    if scale == 0:
        raise ValidationError("no witness exists for u = 0")
    tr = trace_end(u, r)
    if bombieri_norm(tr) > 1e-9 * scale:
        raise ValidationError("input must be trace-free on the fiber")
    adj = adjoint_end(u, r)
    if (adj + u).norm_bombieri() > 1e-9 * scale:
        raise ValidationError("input must be skew-Hermitian on the fiber")

    comps = endo_components(u, r)
    norms = [bombieri_norm(p) for p in comps]
    i_star = int(np.argmax(norms))
    p_i = comps[i_star]
    s_i = skew_hermitian_basis(r)[i_star]

    A1, w_tilde = commutator_factor(s_i)
    f = harmonic_antiderivative(p_i, 0, n + 2 * m)
    A = FourierConnection.cosine_mode(n, (0,) * n, 0, A1)
    w = TwistedHarmonic(n, m + 1, tuple(f * w_tilde[i, j] for i in range(r) for j in range(r)))
    minus = endo_split(A, w)[1]
    pairing = sum(
        bombieri_inner(u.columns[k], minus.columns[k]) for k in range(u.fiber_dim)
    )
    return A, w, float(np.real(pairing))
