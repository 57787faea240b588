"""Exact algebra of homogeneous polynomials on R^n, and the monomial
coordinates of all degree-m data.

Everything here works on polynomials that are homogeneous of a single
degree, stored sparsely as multi-index -> coefficient maps.  The module
provides the differentiation pairing, the Euclidean Laplacian, the
radial/harmonic decomposition, exact monomial moments over the unit
sphere, and sphere-L2-orthonormal bases of harmonic polynomials.

Degree-m data has one monomial order, the lexicographic order of
`monomials`, and one term container, `Terms`: the validated
exponent -> coefficient storage with its vector-space operations and the
conversions `coords()` / `from_coords(n, m, v)`.  `HPoly` adds products,
derivatives and evaluation; `symtensor.SymTensor` adds the tensor metric.
Coefficients are ordinarily complex doubles.  The dict-based arithmetic
is type-agnostic, so tests may feed `fractions.Fraction` coefficients to
`laplace` and `harmonic_decompose` and get exact results back; `HPoly`
and `sphere_inner` are the exact reference the matrix route is tested
against.

The numerical harmonic layer works in monomial coordinates, with matrices
cached per (n, m): the basis coefficients Q (p x h, real, the stored form
of a `HarmonicBasis`, orthonormalized by CholeskyQR2), the moment Gram G
and differentiation d_j.  Every coordinate matrix of a single step, here
and in `symtensor`, scatters its own entries from one cached neighbour
table, the row of a + step e_j in degree m + step; multiplication by v_j
and by |v|^2 act on a matrix as row gathers from the same tables.
Coordinates in a harmonic basis are then one product, `expand(P) =
Q^T G p`; the members as `HPoly`s are built on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConvergenceError, NoSolutionError, ValidationError
from .linalg import nullspace

__all__ = [
    "Terms",
    "HPoly",
    "HarmonicBasis",
    "dims",
    "monomials",
    "apply_diff",
    "bombieri_inner",
    "bombieri_norm",
    "laplace",
    "harmonic_decompose",
    "sphere_monomial_moment",
    "sphere_inner",
    "harmonic_basis",
    "harmonic_antiderivative",
    "radial_squared",
]


def dims(n: int, m: int) -> tuple[int, int]:
    """Dimensions (p, h) of the homogeneous / harmonic polynomials of degree m.

    p = C(n+m-1, m) counts all monomials, h = C(n+m-1, m) - C(n+m-3, m-2)
    counts the harmonic ones (the second binomial is read as 0 for m < 2).
    Python integers do not overflow, so no wrapping can occur.
    """
    if n < 2:
        raise ValidationError(f"ambient dimension must be >= 2, got {n}")
    if m < 0:
        raise ValidationError(f"degree must be >= 0, got {m}")
    p = math.comb(n + m - 1, m)
    h = p - (math.comb(n + m - 3, m - 2) if m >= 2 else 0)
    return p, h


@lru_cache(maxsize=None)
def monomials(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of degree m in n variables, in lexicographic order."""
    if m < 0:
        return ()

    def rec(nv, deg):
        if nv == 1:
            yield (deg,)
            return
        for first in range(deg + 1):
            for rest in rec(nv - 1, deg - first):
                yield (first,) + rest

    return tuple(sorted(rec(n, m)))


class Terms:
    """Degree-m data in n variables, stored as exponent tuple -> coefficient.

    The vector-space half shared by `HPoly` and `symtensor.SymTensor`: the
    validated storage, +, -, scalar * and /, equality, and the conversion
    to and from coordinates in the lexicographic order of `monomials`.
    Explicit zero coefficients may be present; equality ignores them.
    Degree m = -1 or -2 is allowed and denotes the zero element of a
    degree slot that has no monomials (it shows up when an operation drops
    the degree below zero).  The dict arithmetic is type-agnostic, so
    `fractions.Fraction` coefficients stay exact.
    """

    __slots__ = ("n", "m", "coeffs")

    def __init__(self, n, m, coeffs=None):
        if n < 1:
            raise ValidationError(f"need n >= 1, got {n}")
        self.n = int(n)
        self.m = int(m)
        self.coeffs = dict(coeffs) if coeffs else {}
        for a in self.coeffs:
            if len(a) != self.n or any(e < 0 for e in a) or sum(a) != self.m:
                raise ValidationError(f"exponent {a} is not a degree-{self.m} multi-index")

    @classmethod
    def zero(cls, n, m):
        return cls(n, m, {})

    @classmethod
    def from_coords(cls, n, m, v):
        """The element with coordinates v in the order of `monomials(n, m)`."""
        return cls(n, m, {a: c for a, c in zip(monomials(n, m), v) if c != 0})

    def coords(self) -> np.ndarray:
        """Coefficients in the lexicographic order of `monomials`, as complex."""
        index = _monomial_index(self.n, self.m)
        v = np.zeros(len(index), dtype=complex)
        for a, c in self.coeffs.items():
            v[index[a]] = complex(c)
        return v

    def __add__(self, other):
        if not isinstance(other, type(self)) or (other.n, other.m) != (self.n, self.m):
            raise ValidationError("operands must share (n, m)")
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0) + c
        return type(self)(self.n, self.m, out)

    def __sub__(self, other):
        return self + (other * (-1))

    def __mul__(self, scalar):
        return type(self)(self.n, self.m, {a: c * scalar for a, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return type(self)(self.n, self.m, {a: c / scalar for a, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.n != other.n:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coeffs.get(a, 0) == other.coeffs.get(a, 0) for a in keys)

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")

    def __repr__(self):
        terms = ", ".join(f"{a}: {c}" for a, c in sorted(self.coeffs.items()))
        return f"{type(self).__name__}(n={self.n}, m={self.m}, {{{terms}}})"


class HPoly(Terms):
    """Homogeneous polynomial of degree m in n variables: `Terms` with
    products, derivatives and evaluation."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, n, alpha, c=1.0):
        alpha = tuple(int(e) for e in alpha)
        return cls(n, sum(alpha), {alpha: c})

    @classmethod
    def variable(cls, n, j, c=1.0):
        alpha = tuple(1 if i == j else 0 for i in range(n))
        return cls(n, 1, {alpha: c})

    @classmethod
    def constant(cls, n, c):
        return cls(n, 0, {(0,) * n: c})

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, HPoly):
            return super().__mul__(other)
        if other.n != self.n:
            raise ValidationError("polynomial product needs matching n")
        out = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                k = tuple(x + y for x, y in zip(a, b))
                out[k] = out.get(k, 0) + ca * cb
        return HPoly(self.n, self.m + other.m, out)

    def conj(self):
        return HPoly(self.n, self.m, {a: c.conjugate() for a, c in self.coeffs.items()})

    def deriv(self, j):
        """Partial derivative with respect to variable j."""
        out = {}
        for a, c in self.coeffs.items():
            if a[j] > 0:
                b = a[:j] + (a[j] - 1,) + a[j + 1:]
                out[b] = out.get(b, 0) + c * a[j]
        return HPoly(self.n, self.m - 1, out)

    def prune(self):
        """Drop the exact zero coefficients (and any NaN)."""
        return HPoly(self.n, self.m, {a: c for a, c in self.coeffs.items() if abs(c) > 0})

    def compose_linear(self, M):
        """Substitute v -> M y: returns Q(y) = P(M y) in M.shape[1] variables.

        Homogeneity is preserved; with M an orthogonal matrix this is the
        rotation action, with rectangular M a restriction/extension along
        a subspace.
        """
        M = np.asarray(M)
        if M.shape[0] != self.n:
            raise ValidationError(f"substitution matrix needs {self.n} rows")
        n_new = M.shape[1]
        lin = [HPoly(n_new, 1, {tuple(1 if t == j else 0 for t in range(n_new)): M[i, j]
                                for j in range(n_new) if M[i, j] != 0})
               for i in range(self.n)]
        out = HPoly.zero(n_new, self.m)
        for a, c in self.coeffs.items():
            term = HPoly.constant(n_new, c)
            for i, e in enumerate(a):
                for _ in range(e):
                    term = term * lin[i]
            out = out + term
        return out

    def is_zero(self, tol=0.0):
        return all(abs(c) <= tol for c in self.coeffs.values())

    def max_abs_coeff(self):
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    # -- evaluation --------------------------------------------------------

    def eval(self, points):
        """Evaluate at an (N, n) array of points; returns an (N,) complex array."""
        pts = np.atleast_2d(np.asarray(points))
        if pts.shape[1] != self.n:
            raise ValidationError(f"points must have {self.n} columns")
        vals = np.zeros(pts.shape[0], dtype=complex)
        for a, c in self.coeffs.items():
            term = np.ones(pts.shape[0], dtype=complex)
            for i, e in enumerate(a):
                if e:
                    term = term * pts[:, i] ** e
            vals += complex(c) * term
        return vals


def radial_squared(n):
    """The polynomial |v|^2."""
    return HPoly(n, 2, {tuple(2 if i == j else 0 for i in range(n)): 1 for j in range(n)})


def apply_diff(P: HPoly, Q: HPoly):
    """Apply the constant-coefficient operator sum c_alpha d^alpha built from P to Q.

    Requires deg P <= deg Q.  Returns a scalar when the degrees match,
    otherwise an HPoly of degree deg Q - deg P.
    """
    if P.n != Q.n:
        raise ValidationError("apply_diff needs matching n")
    if P.m > Q.m:
        raise ValidationError(f"deg P = {P.m} exceeds deg Q = {Q.m}")
    out = {}
    for a, ca in P.coeffs.items():
        for b, cb in Q.coeffs.items():
            if any(bi < ai for ai, bi in zip(a, b)):
                continue
            k = tuple(bi - ai for ai, bi in zip(a, b))
            fac = 1
            for ai, bi in zip(a, b):
                # b!/(b-a)! per coordinate
                for t in range(bi - ai + 1, bi + 1):
                    fac *= t
            out[k] = out.get(k, 0) + ca * cb * fac
    res = HPoly(P.n, Q.m - P.m, out)
    if P.m == Q.m:
        return res.coeffs.get((0,) * P.n, 0)
    return res


def bombieri_inner(P: HPoly, Q: HPoly):
    """Differentiation pairing sum_alpha alpha! a_alpha conj(b_alpha).

    Sesquilinear (conjugate-linear in Q), Hermitian, positive definite on
    each fixed degree.  Degrees must match.
    """
    if P.n != Q.n or P.m != Q.m:
        raise ValidationError("bombieri_inner needs matching (n, m)")
    total = 0
    for a, ca in P.coeffs.items():
        cb = Q.coeffs.get(a)
        if cb is None:
            continue
        fac = 1
        for e in a:
            fac *= math.factorial(e)
        total += fac * ca * cb.conjugate()
    return total


def bombieri_norm(P: HPoly) -> float:
    return math.sqrt(abs(bombieri_inner(P, P)))


def laplace(P: HPoly) -> HPoly:
    """Euclidean Laplacian; drops the degree by two (zero polynomial for m < 2)."""
    out = {}
    for a, c in P.coeffs.items():
        for j, e in enumerate(a):
            if e >= 2:
                b = a[:j] + (e - 2,) + a[j + 1:]
                out[b] = out.get(b, 0) + c * e * (e - 1)
    return HPoly(P.n, P.m - 2, out)


def harmonic_decompose(P: HPoly) -> list[tuple[int, HPoly]]:
    """Split P into sum_k |v|^(2k) h_k with every h_k harmonic.

    Peels the radial parts top-down: Laplace^k kills every term with
    radial exponent below k and acts on |v|^(2k) h_j as multiplication by
    the integer prod_{i=1..k} 2i(2i + 2j + n - 2), so each h_k is read off
    by an exact division.  With rational coefficients the result is exact.
    """
    n, m = P.n, P.m
    r2 = radial_squared(n)
    parts = []
    rem = P
    for k in range(m // 2, -1, -1):
        j = m - 2 * k
        Q = rem
        for _ in range(k):
            Q = laplace(Q)
        c = 1
        for i in range(1, k + 1):
            c *= 2 * i * (2 * i + 2 * j + n - 2)
        h = (Q / c if c != 1 else Q).prune()
        if h.coeffs:
            parts.append((k, h))
            radial = h
            for _ in range(k):
                radial = radial * r2
            rem = rem - radial
    parts.reverse()
    return parts


@lru_cache(maxsize=None)
def sphere_monomial_moment(alpha: tuple[int, ...], n: int) -> float:
    """Exact moment of the monomial v^alpha over the unit sphere S^{n-1}.

    Zero when any exponent is odd; otherwise
    2 prod_i Gamma((alpha_i+1)/2) / Gamma((|alpha|+n)/2).
    """
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    alpha = tuple(alpha) + (0,) * (n - len(alpha))
    if any(a % 2 for a in alpha):
        return 0.0
    num = 1.0
    for a in alpha:
        num *= math.gamma((a + 1) / 2.0)
    return 2.0 * num / math.gamma((sum(alpha) + n) / 2.0)


def sphere_inner(P: HPoly, Q: HPoly):
    """L2(S^{n-1}) scalar product of two homogeneous polynomials.

    Computed exactly from monomial moments; degrees may differ (harmonics
    of distinct degree come out orthogonal).
    """
    if P.n != Q.n:
        raise ValidationError("sphere_inner needs matching n")
    total = 0.0 + 0.0j
    for a, ca in P.coeffs.items():
        for b, cb in Q.coeffs.items():
            mom = sphere_monomial_moment(tuple(x + y for x, y in zip(a, b)), P.n)
            if mom:
                total += complex(ca) * complex(cb).conjugate() * mom
    return total


@dataclass(frozen=True, eq=False)
class HarmonicBasis:
    """Sphere-L2-orthonormal basis of the harmonic polynomials of degree m.

    Q (p x h, real) holds the members' coefficients in the lexicographic monomial
    order; orthonormality_residual is max|Q^T G Q - I| and harmonicity_residual
    is max|L Q| / (max|L| max|Q|), L the Laplacian constraint (0 for m < 2).
    From `harmonic_basis`, which gates on the first and only records the second.
    """

    n: int
    m: int
    Q: np.ndarray
    orthonormality_residual: float
    harmonicity_residual: float

    def __len__(self):
        return self.Q.shape[1]

    @cached_property
    def members(self) -> tuple[HPoly, ...]:
        """The columns of Q as `HPoly`s, built on first use."""
        return tuple(HPoly.from_coords(self.n, self.m, col) for col in self.Q.T)

    def expand(self, P: HPoly) -> np.ndarray:
        """Sphere-L2 products of P with the members, Q^T G p.

        These are P's coordinates when P is harmonic, and the coordinates
        of its projection onto the harmonic polynomials otherwise.
        """
        if (P.n, P.m) != (self.n, self.m):
            raise ValidationError(
                f"polynomial of (n={P.n}, m={P.m}) expanded in the (n={self.n}, m={self.m}) basis"
            )
        return _dual_matrix(self.n, self.m) @ P.coords()

    def combine(self, coords) -> HPoly:
        return HPoly.from_coords(self.n, self.m, self.Q @ np.asarray(coords, dtype=complex))

    def eval_members(self, points) -> np.ndarray:
        """(N, h) array of member values at an (N, n) array of sphere points."""
        pts = np.atleast_2d(np.asarray(points))
        return np.prod(pts[:, None, :] ** np.array(monomials(self.n, self.m)), axis=2) @ self.Q


def _laplacian_constraint_matrix(n, m):
    """Matrix of the Laplacian from degree-m to degree-(m-2) monomial
    coefficients: a_j (a_j - 1) at the row of a - 2 e_j."""
    _, row, col, e = _neighbours(n, m, -2)
    L = np.zeros((len(monomials(n, m - 2)), len(monomials(n, m))))
    L[row, col] = e * (e - 1)
    return L


def harmonic_nullity_bruteforce(n, m) -> int:
    """Independent oracle for dims(n, m).h: nullity of the Laplacian constraint."""
    if m < 2:
        return len(monomials(n, m))
    L = _laplacian_constraint_matrix(n, m)
    return nullspace(L, max(L.shape) * np.finfo(float).eps)[0].shape[1]


@lru_cache(maxsize=None)
def _moment_gram(n, m):
    """Moments of monomial products, entry for entry `sphere_monomial_moment`'s."""
    E = np.array(monomials(n, m))
    g = np.array([math.gamma((e + 1) / 2.0) if e % 2 == 0 else 0.0
                  for e in range(2 * m + 1)])
    num = np.ones((len(E), len(E)))
    for k in range(n):  # the factor order of sphere_monomial_moment
        num = num * g[E[:, None, k] + E[None, :, k]]
    return 2.0 * num / math.gamma((2 * m + n) / 2.0)


@lru_cache(maxsize=None)
def harmonic_basis(n: int, m: int) -> HarmonicBasis:
    """Sphere-orthonormal harmonic basis, cached per (n, m).

    The span is the SVD null space of the Laplacian constraint in the
    lexicographic monomial coordinates, orthonormalized by CholeskyQR2 in the
    moment Gram G (two passes of Q <- Q C^{-T}, C = chol(Q^T G Q): the basis
    of Gram-Schmidt).  cond(G) grows with m, so a failed Cholesky or
    max|Q^T G Q - I| > 1e-9 raises ConvergenceError: the residual is <= 3e-11
    through (3, 24) and (4, 18), and (4, 20) passes.  For n = 3, (3, 29)
    passes at 5.8e-10 and (3, 30) raises at 1.6e-9.  For n = 2 the ceiling
    is not monotone: degrees 31 and 32 raise, 33 passes, every degree from
    34 raises, and the Cholesky fails from 58.
    """
    p, h = dims(n, m)
    L = _laplacian_constraint_matrix(n, m)
    Q = np.eye(p) if m < 2 else nullspace(L, 1e-12)[0]
    if Q.shape[1] != h:
        raise ConvergenceError(
            f"nullity of the Laplacian constraint at (n={n}, m={m}) is "
            f"{Q.shape[1]}, expected {h}"
        )
    G = _moment_gram(n, m)
    try:
        for _ in range(2):
            Q = np.linalg.solve(np.linalg.cholesky(Q.T @ G @ Q), Q.T).T
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Cholesky of the (n={n}, m={m}) harmonic Gram failed") from exc
    resid = float(np.abs(Q.T @ G @ Q - np.eye(h)).max())
    if not resid <= 1e-9:
        raise ConvergenceError(f"(n={n}, m={m}) harmonic basis orthonormal to {resid:.1e} > 1e-9")
    harmonicity = 0.0
    if m >= 2:
        harmonicity = float(np.abs(L @ Q).max() / (np.abs(L).max() * np.abs(Q).max()))
    return HarmonicBasis(n, m, Q, resid, harmonicity)


# ---------------------------------------------------------------------------
# monomial-coordinate matrices, cached per (n, m)


@lru_cache(maxsize=None)
def _monomial_index(n, m):
    return {a: i for i, a in enumerate(monomials(n, m))}


@lru_cache(maxsize=None)
def _neighbours(n, m, step):
    """The neighbour table of the degree-m monomials for step in {+1, -1, -2}.

    Flat index arrays (j, row, col, e), one entry per column a =
    monomials(n, m)[col] and direction j < n with a_j + step >= 0: row is
    the index of a + step e_j among the degree-(m + step) monomials and
    e = a_j.  Each single-step coordinate matrix, here and in `symtensor`,
    scatters its own entries, a function of e, at (j, row, col).
    """
    index = _monomial_index(n, m + step)
    table = [(j, index[a[:j] + (a[j] + step,) + a[j + 1:]], col, a[j])
             for col, a in enumerate(monomials(n, m)) for j in range(n) if a[j] + step >= 0]
    return tuple(np.array(table, dtype=np.intp).reshape(-1, 4).T)


def _neighbour_rows(n, m, step, X, entries):
    """The (n, p_{m+step}, cols) stack of the products M_j X, M_j the
    single-step matrix with entries(e) at the table's (j, row, col).

    M_j has at most one nonzero per row, so M_j X is a row gather: its row
    `row` is entries(e) times row `col` of X, the value the product gives.
    """
    j, row, col, e = _neighbours(n, m, step)
    out = np.zeros((n, len(monomials(n, m + step)), X.shape[1]), dtype=X.dtype)
    out[j, row] = np.reshape(entries(e), (-1, 1)) * X[col]
    return out


def _neighbour_stack(n, m, step, entries):
    """(n, p_{m+step}, p_m) stack with entries(e) at the table's (j, row, col)."""
    return _neighbour_rows(n, m, step, np.eye(len(monomials(n, m))), entries)


@lru_cache(maxsize=None)
def _dual_matrix(n, m):
    """Q^T G: sends a degree-m coefficient vector to its sphere-L2 products
    with the members of harmonic_basis(n, m)."""
    return harmonic_basis(n, m).Q.T @ _moment_gram(n, m)


@lru_cache(maxsize=None)
def _diff_matrices(n, m):
    """D_j, j < n: the partial derivative d_j from degree m to degree m-1 (entries a_j)."""
    return tuple(_neighbour_stack(n, m, -1, lambda e: e))


def _radial_rows(n, m, X):
    """R X for R = sum_k v_k^2, multiplication by |v|^2 from degree m to
    degree m+2 (p_m rows of X).

    Row b of R X is the sum of the rows b - 2 e_k of X over k with
    b_k >= 2, gathered from the step -2 neighbour table of degree m+2 and
    added for k = 0, 1, ..., which is ascending order of the rows of X
    (b - 2 e_k precedes b - 2 e_l lexicographically for k < l).
    """
    k, row, col, _ = _neighbours(n, m + 2, -2)
    out = np.zeros((len(monomials(n, m + 2)), X.shape[1]), dtype=X.dtype)
    for j in range(n):
        sel = k == j
        out[col[sel]] += X[row[sel]]
    return out


def harmonic_antiderivative(p: HPoly, j: int, c=1.0) -> HPoly:
    """Solve d_j f = c * p with f harmonic of degree deg(p) + 1.

    Solvable for every harmonic p when n >= 3; for n = 2 the system can be
    rank-deficient, in which case NoSolutionError is raised rather than
    returning a least-squares fit.
    """
    n, m = p.n, p.m
    scale = bombieri_norm(p)
    if scale == 0:
        return HPoly.zero(n, m + 1)
    if bombieri_norm(laplace(p)) > 1e-10 * scale:
        raise ValidationError("input polynomial is not harmonic")
    bm = harmonic_basis(n, m)
    bm1 = harmonic_basis(n, m + 1)
    D = _dual_matrix(n, m) @ _diff_matrices(n, m + 1)[j] @ bm1.Q
    rhs = bm.expand(p) * complex(c)
    x, *_ = np.linalg.lstsq(D, rhs, rcond=None)
    f = bm1.combine(x)
    resid = bombieri_norm(f.deriv(j) - (p * c))
    if resid > 1e-10 * max(1.0, abs(c) * scale):
        raise NoSolutionError(
            f"d_{j} f = c p has no harmonic solution at (n={n}, m={m}); residual {resid:.3e}"
        )
    return f
