"""Principal-symbol calculus and the uniform-divergence-type verdict.

A symbol family evaluates a matrix at unit covectors.  The checker
samples the cosphere deterministically, extracts the kernel of the
symbol at each sample, and accumulates the span; the family is of
uniform divergence type exactly when the accumulated span fills the
fiber; kernel and span are `linalg` rank cuts.  Families implemented
here: the contraction symbols of the symmetric-derivative adjoint
(trace-free and full tensor models) and of exterior forms, both -i sum_j
xi_j C_j over a cached stack C, the divergence of a vector field, and
the build-by-hand elliptic counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from statistics import NormalDist

import numpy as np

from .connalg import TwistedHarmonic, _fiber_values
from .errors import ValidationError
from .linalg import block_nullspace, check_entries, nullspace
from .polyharm import dims
from .symtensor import _contraction_matrices, _tracefree_contraction, _weights
from .torus import FourierConnection

__all__ = [
    "SymbolFamily",
    "SpanReport",
    "make_cosphere_sampler",
    "uniform_span",
    "symbol_dstar",
    "dstar_family",
    "divergence_family",
    "forms_family",
    "counterexample_family",
    "check_dstar_uniform",
    "sphere_quadrature",
    "fiber_symbol_pairing",
]


@dataclass(frozen=True)
class SymbolFamily:
    """A 0-homogeneous matrix symbol, queried only at unit covectors of R^covector_dim."""

    domain_dim: int
    codomain_dim: int
    evaluator: callable
    covector_dim: int
    name: str = ""

    def __post_init__(self):
        _check_covector_dim(self.covector_dim)

    def __call__(self, xi) -> np.ndarray:
        M = np.asarray(self.evaluator(np.asarray(xi, dtype=float)))
        if M.shape != (self.codomain_dim, self.domain_dim):
            raise ValidationError(
                f"symbol shape {M.shape} != ({self.codomain_dim}, {self.domain_dim})"
            )
        return M


@dataclass
class SpanReport:
    """Outcome of accumulating symbol kernels over the cosphere."""

    sampled_count: int
    kernel_dims: list
    span_history: list
    span_dim: int
    fiber_dim: int
    verdict: str
    name: str = ""
    note: str = ""

    def csv_rows(self):
        rows = ["index,kernel_dim,cumulative_span_dim"]
        for i, (kd, cum) in enumerate(zip(self.kernel_dims, self.span_history)):
            rows.append(f"{i},{kd},{cum}")
        rows.append(
            f"summary,span={self.span_dim}/{self.fiber_dim},verdict={self.verdict}"
        )
        return rows


def _kronecker_alphas(d):
    # generalized golden-ratio (R_d) sequence: 1/phi_d^k for the root of
    # x^(d+1) = x + 1
    x = 1.5
    for _ in range(60):
        x = (1 + x) ** (1 / (d + 1))
    return np.array([x ** -(k + 1) for k in range(d)])


def make_cosphere_sampler(n: int, seed: int = 0):
    """Deterministic quasi-uniform unit-vector sampler on S^{n-1}.

    Fibonacci-type: a rank-n Kronecker (golden-ratio family) sequence in
    the unit cube, pushed through the inverse normal CDF and normalized.
    The seed only shifts the sequence offset, so runs are reproducible.
    """
    inv_cdf = NormalDist().inv_cdf
    alphas = _kronecker_alphas(n)
    rng = np.random.default_rng(seed)
    offset = rng.random(n)

    def sample(i: int) -> np.ndarray:
        u = (offset + (i + 1) * alphas) % 1.0
        u = np.clip(u, 1e-12, 1 - 1e-12)
        g = np.array([inv_cdf(c) for c in u])
        nrm = np.linalg.norm(g)
        if nrm < 1e-12:
            g = np.ones(n)
            nrm = math.sqrt(n)
        return g / nrm

    return sample


# [span | kernel] has orthonormal blocks, so s0 is in [1, sqrt 2]: a kernel
# vector at distance rho from the span adds a singular value near rho/sqrt 2
# beside sqrt 2, and it is a new direction when rho > 1e-8
_SPAN_RTOL = 5e-9


def uniform_span(family: SymbolFamily, N: int = 256, seed: int = 0) -> SpanReport:
    """Accumulate ker(symbol) over sampled covectors and report the span.

    The covectors come from `make_cosphere_sampler(family.covector_dim,
    seed)`, so the report is deterministic given the seed.  Each sample's
    span is the range of [span | kernel] at rtol _SPAN_RTOL
    (`linalg.block_nullspace`), and it grew when that rank exceeds its
    width.  The span is declared final once it has been stable over the
    last max(16, fiber_dim) samples; the verdicts are 'uniform' (span
    fills the fiber), 'elliptic' (every sampled kernel was trivial), or
    'not-uniform'.
    """
    if N < 1:
        raise ValidationError(f"need at least one covector sample, got N={N}")
    if family.domain_dim < 1:
        raise ValidationError(f"{family.name} acts on a fiber of dimension {family.domain_dim}")
    sampler = make_cosphere_sampler(family.covector_dim, seed)
    fiber = family.domain_dim
    span = np.zeros((fiber, 0), dtype=complex)
    kernel_dims = []
    span_history = []
    stable_needed = max(16, fiber)
    stable = 0
    count = 0
    for i in range(N):
        xi = sampler(i)
        K, _ = nullspace(family(xi), 1e-10)
        ((U, _, (rank,)),), _ = block_nullspace([np.hstack([span, K])[None]], _SPAN_RTOL)
        grew = rank > span.shape[1]
        span = U[0, :, :rank]
        kernel_dims.append(K.shape[1])
        span_history.append(span.shape[1])
        count = i + 1
        stable = 0 if grew else stable + 1
        if span.shape[1] == fiber or (stable >= stable_needed and count >= stable_needed):
            break
    span_dim = span.shape[1]
    if span_dim == fiber:
        verdict = "uniform"
    elif all(kd == 0 for kd in kernel_dims):
        verdict = "elliptic"
    else:
        verdict = "not-uniform"
    return SpanReport(count, kernel_dims, span_history, span_dim, fiber, verdict,
                      name=family.name)


def _check_covector_dim(n):
    if n < 2:
        raise ValidationError(f"need covector dimension n >= 2, got {n}")


def _check_fiber(name, dom, cod, stack=1):
    """Refuse a family before it is built when its largest array, the (dom,
    dom) kernel span or its `stack` (cod, dom) symbols, is over the ceiling."""
    check_entries(f"the symbol family {name} on a fiber of dimension {dom}",
                  max(dom, stack * cod) * dom)


@lru_cache(maxsize=None)
def _dstar_stack(n, m, model):
    """The contractions with e_j, j < n, from degree m to degree m-1, as an
    (n, rows, cols) stack in orthonormal bases of the model: symtensor's
    trace-free bases for 'tracefree', the multiplicity basis scaled by
    sqrt(mult) for 'full'."""
    if model == "tracefree":
        return _tracefree_contraction(n, m)
    if model == "full":
        lo, hi = (np.sqrt(_weights(n, k)) for k in (m - 1, m))
        return lo[:, None] * _contraction_matrices(n, m) / hi
    raise ValidationError(f"unknown model {model!r}")


def _contract(xi, stack):
    """-i sum_j xi_j C_j over an (n, cod, dom) stack C."""
    return -1j * np.tensordot(np.asarray(xi, dtype=float), stack, axes=1)


def _stack_family(stack, n, name):
    """The family of `_contract` over a cached (n, cod, dom) stack."""
    cod, dom = stack.shape[1:]
    return SymbolFamily(dom, cod, lambda xi: _contract(xi, stack), n, name=name)


def symbol_dstar(n: int, m: int, xi, model: str = "tracefree") -> np.ndarray:
    """Contraction symbol -i iota_xi on symmetric m-tensors, as a matrix.

    model='tracefree' uses orthonormal bases of the trace-free symmetric
    tensors on both sides (the model of the degree-m spherical
    harmonics); model='full' uses the weighted monomial basis of all
    symmetric tensors.  m = 0 gives the zero map to an empty codomain.
    The matrix is -i sum_j xi_j C_j over the cached stack C of the model.
    """
    return _contract(xi, _dstar_stack(n, m, model))


def dstar_family(n: int, m: int, model: str = "tracefree") -> SymbolFamily:
    _check_covector_dim(n)  # before any tensor basis is built
    if model in ("tracefree", "full"):  # _dstar_stack refuses any other
        side = int(model == "tracefree")  # trace-free tensors count as harmonics
        _check_fiber(f"dstar[{model}] n={n} m={m}", dims(n, m)[side],
                     dims(n, m - 1)[side] if m else 0, n)
    return _stack_family(_dstar_stack(n, m, model), n, f"dstar[{model}] n={n} m={m}")


def divergence_family(n: int) -> SymbolFamily:
    """Symbol of the divergence of a vector field: v -> i <xi, v>."""
    _check_fiber(f"divergence n={n}", n, 1)
    return SymbolFamily(n, 1, lambda xi: (1j * xi)[None, :], n, name=f"divergence n={n}")


def counterexample_family(r: int) -> SymbolFamily:
    """Divergence-type but not uniform: (u1, u2) -> |xi|^2 (u1 - u2), xi in R^3."""
    if r < 1:
        raise ValidationError(f"need fiber rank r >= 1, got {r}")
    _check_fiber(f"counterexample r={r}", 2 * r, r)
    eye = np.eye(r)
    block = np.hstack([eye, -eye])

    def ev(xi):
        return float(xi @ xi) * block

    return SymbolFamily(2 * r, r, ev, 3, name=f"counterexample r={r}")


@lru_cache(maxsize=None)
def _forms_stack(n, k):
    """The contractions iota_{e_j}, j < n, from k-forms to (k-1)-forms in
    the wedge bases of ascending index subsets, as an (n, C(n, k-1), C(n, k))
    stack: iota_{e_j} e_S = (-1)^pos e_{S - j}, j at position pos of S."""
    cod = {S: c for c, S in enumerate(combinations(range(n), k - 1))} if k else {}
    C = np.zeros((n, len(cod), math.comb(n, k)))
    for a, S in enumerate(combinations(range(n), k)):
        for pos, j in enumerate(S):
            C[j, cod[S[:pos] + S[pos + 1:]], a] = (-1) ** pos
    return C


def forms_family(n: int, k: int) -> SymbolFamily:
    """Symbol -i iota_xi from k-forms to (k-1)-forms."""
    if not 0 <= k <= n:
        raise ValidationError(f"need 0 <= k <= n, got k={k}")
    _check_fiber(f"forms n={n} k={k}", math.comb(n, k), math.comb(n, k - 1) if k else 0, n)
    return _stack_family(_forms_stack(n, k), n, f"forms n={n} k={k}")


def check_dstar_uniform(n: int, m: int, model: str = "tracefree", N: int = 256,
                        seed: int = 0) -> SpanReport:
    """Uniform-divergence verdict for the contraction symbol, with the
    documented (n=2, m=1) edge case flagged in the report note."""
    rep = uniform_span(dstar_family(n, m, model), N=N, seed=seed)
    if n == 2 and m == 1:
        rep.note = (
            "documented edge case: raw sampled kernels span the full fiber at "
            "(n=2, m=1) although the surface operators are classified as elliptic"
        )
    return rep


# ---------------------------------------------------------------------------
# quadrature on spheres and the fiber symbol pairing


def _gauss_jacobi(npoints: int, a: float):
    """Gauss rule (nodes ascending, weights) for the weight (1 - t^2)^a on
    [-1, 1], a >= 0, by Golub-Welsch.

    The nodes are the eigenvalues of the symmetric Jacobi matrix of the
    orthonormal polynomials: zero diagonal, as the weight is even, and
    off-diagonal b_k = sqrt(k (k + 2a) / (4 (k + a)^2 - 1)).  The weights
    are mu_0 v_0^2, with v_0 the first eigenvector components and
    mu_0 = sqrt(pi) Gamma(a + 1) / Gamma(a + 3/2) the weight's total mass.
    """
    k = np.arange(1, npoints)
    b = np.sqrt(k * (k + 2 * a) / (4 * (k + a) ** 2 - 1))
    t, v = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))
    mu0 = math.sqrt(math.pi) * math.exp(math.lgamma(a + 1) - math.lgamma(a + 1.5))
    return t, mu0 * v[0] ** 2


def sphere_quadrature(d: int, npoints: int):
    """Quadrature nodes/weights on the unit sphere S^d embedded in R^{d+1}.

    d = 1 is the trapezoidal rule on the circle (spectrally exact for
    trigonometric polynomials); d >= 2 is the product of a Gauss-Jacobi
    rule in the polar cosine with a recursive rule on S^{d-1}.
    """
    if d < 1:
        raise ValidationError("need a sphere of dimension >= 1")
    if d == 1:
        N = max(int(npoints), 4)
        theta = 2 * math.pi * np.arange(N) / N
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        w = np.full(N, 2 * math.pi / N)
        return pts, w
    n_polar = max(4, int(round(npoints ** (1.0 / d))) + 2)
    sub_n = max(4, int(npoints // n_polar))
    t, wt = _gauss_jacobi(n_polar, (d - 2) / 2.0)
    sub_pts, sub_w = sphere_quadrature(d - 1, sub_n)
    pts = []
    wts = []
    for ti, wti in zip(t, wt):
        s = math.sqrt(max(0.0, 1 - ti * ti))
        block = np.column_stack([np.full(len(sub_pts), ti), s * sub_pts])
        pts.append(block)
        wts.append(wti * sub_w)
    return np.vstack(pts), np.concatenate(wts)


def _orthonormal_complement(xi):
    """Columns: orthonormal basis of the hyperplane perpendicular to xi."""
    xi = np.asarray(xi, dtype=float)
    n = len(xi)
    q, _ = np.linalg.qr(np.column_stack([xi / np.linalg.norm(xi), np.eye(n)]))
    return q[:, 1:n]


def fiber_symbol_pairing(A1: FourierConnection, u: TwistedHarmonic, Am0: TwistedHarmonic,
                         xi0, nq: int = 10_000, return_error: bool = False):
    """Pairing (2 pi/|xi0|) * integral over {|v|=1, <xi0, v> = 0} of
    <[A1(v), u(v)], Am0(v)>_Frobenius.

    A1 is a constant connection form: its only mode is 0.  u and Am0
    live over the endomorphism fiber (dimension r^2).  The integral runs
    over the (n-2)-sphere of unit vectors perpendicular to xi0, so
    n >= 3 is required.  With return_error=True a halving-error
    estimate accompanies the value.
    """
    _fiber_values(A1)  # refuses a form with a nonzero mode
    n, r = A1.n, A1.r
    if n < 3:
        raise ValidationError("fiber pairing needs n >= 3 (the sub-sphere must exist)")
    if u.fiber_dim != r * r or Am0.fiber_dim != r * r:
        raise ValidationError("u and Am0 must have endomorphism fiber r^2")
    xi0 = np.asarray(xi0, dtype=float)
    xi_norm = float(np.linalg.norm(xi0))
    if xi_norm == 0:
        raise ValidationError("xi0 must be nonzero")

    W = _orthonormal_complement(xi0)  # n x (n-1)

    def integral(npts):
        ypts, wts = sphere_quadrature(n - 2, npts)
        vpts = ypts @ W.T  # points on the sub-sphere, shape (M, n)
        u_vals = np.stack([c.eval(vpts) for c in u.columns], axis=1).reshape(-1, r, r)
        a_vals = np.stack([c.eval(vpts) for c in Am0.columns], axis=1).reshape(-1, r, r)
        A_at = A1.value_at(np.zeros(n), vpts)
        comm = A_at @ u_vals - u_vals @ A_at
        integrand = np.einsum("mab,mab->m", comm, a_vals.conj())
        return (wts @ integrand) * (2 * math.pi / xi_norm)

    val = integral(nq)
    if return_error:
        val_half = integral(max(nq // 2, 8))
        return val, abs(val - val_half)
    return val
