"""Symmetric tensor algebra over R^n in multiplicity storage.

A symmetric m-tensor is stored by multiplicity vector: the coefficient
kept for Theta = (theta_1, ..., theta_n) is the common value u_K of the
full tensor on every index tuple K whose letter counts equal Theta.  The
tensor-power metric then carries the multinomial weight
mult(Theta) = m!/prod(theta_i!): <u, w> = sum_Theta mult(Theta) u_Theta
conj(w_Theta).

The module provides symmetrization, trace, its adjoint (multiplication
by the metric followed by symmetrization), trace-free projection, the
degree-m polynomial correspondence, and first-slot contraction.

`SymTensor` is a `polyharm.Terms`, so its storage, vector-space
operations and coordinates (`coords()` / `from_coords`, in the order of
`polyharm.monomials`) are those of `HPoly`; it adds the tensor metric.
The dict-based `SymTensor` arithmetic is the exact reference.  The
numerical routes read coordinate matrices, cached per (n, m), in which
the metric is diag(W), W the multiplicities: contraction with e_j and the
symmetric product S(e_j tensor .), each scattered from polyharm's
neighbour table, the trace, and the trace-free tensors as one
W-orthonormal matrix V.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .linalg import nullspace
from .polyharm import HPoly, Terms, _neighbour_stack, monomials

__all__ = [
    "SymTensor",
    "metric_tensor",
    "symmetrize",
    "trace",
    "jay",
    "tracefree_project",
    "to_poly",
    "from_poly",
    "contract",
    "sym_mult_form",
    "tracefree_basis",
    "multiplicity",
]


@lru_cache(maxsize=None)
def multiplicity(theta: tuple[int, ...]) -> int:
    """Number of index tuples with the given letter counts: m!/prod(theta_i!)."""
    m = sum(theta)
    out = math.factorial(m)
    for t in theta:
        out //= math.factorial(t)
    return out


class SymTensor(Terms):
    """Symmetric m-tensor over R^n keyed by multiplicity vector: `Terms`
    with the tensor metric."""

    __slots__ = ()

    @classmethod
    def basis_element(cls, n, theta, c=1.0):
        """The symmetrized elementary tensor S e*_K with Theta(K) = theta, scaled by c."""
        theta = tuple(int(e) for e in theta)
        return cls(n, sum(theta), {theta: c})

    def inner(self, other) -> complex:
        """Tensor-power scalar product with multinomial weights."""
        if not isinstance(other, SymTensor) or (other.n, other.m) != (self.n, self.m):
            raise ValidationError("operands must share (n, m)")
        total = 0
        for t, c in self.coeffs.items():
            d = other.coeffs.get(t)
            if d is not None:
                total += multiplicity(t) * c * d.conjugate()
        return total

    def norm(self) -> float:
        return math.sqrt(abs(self.inner(self)))

    def full_coeff(self, K) -> complex:
        """Value of the underlying full tensor on the index tuple K."""
        theta = [0] * self.n
        for k in K:
            theta[k] += 1
        return self.coeffs.get(tuple(theta), 0)


def metric_tensor(n: int) -> SymTensor:
    """The Euclidean metric as a symmetric 2-tensor (trace n)."""
    return SymTensor(n, 2, {tuple(2 if i == j else 0 for i in range(n)): 1.0 for j in range(n)})


def symmetrize(n: int, m: int, full_coeffs: dict) -> SymTensor:
    """Symmetrize a full m-tensor given as {index tuple K: value}.

    The result's coefficient on Theta is the average of the input values
    over all index tuples in the Theta orbit (missing entries count 0).
    """
    sums: dict[tuple[int, ...], complex] = {}
    for K, val in full_coeffs.items():
        if len(K) != m or any(not (0 <= k < n) for k in K):
            raise ValidationError(f"bad index tuple {K}")
        theta = [0] * n
        for k in K:
            theta[k] += 1
        t = tuple(theta)
        sums[t] = sums.get(t, 0) + val
    return SymTensor(n, m, {t: s / multiplicity(t) for t, s in sums.items()})


def trace(T: SymTensor) -> SymTensor:
    """Contract the first two slots against the metric; zero for m < 2."""
    if T.m < 2:
        return SymTensor.zero(T.n, 0)
    # (trace u)_{Theta'} = sum_i u_{Theta' + 2 e_i}
    out: dict[tuple[int, ...], complex] = {}
    for t, c in T.coeffs.items():
        for i in range(T.n):
            if t[i] >= 2:
                tp = t[:i] + (t[i] - 2,) + t[i + 1:]
                out[tp] = out.get(tp, 0) + c
    return SymTensor(T.n, T.m - 2, out)


def jay(T: SymTensor) -> SymTensor:
    """Symmetrized product with the metric, the adjoint of trace."""
    n, m = T.n, T.m
    out: dict[tuple[int, ...], complex] = {}
    for tpp in monomials(n, m + 2):
        acc = 0
        for i in range(n):
            if tpp[i] >= 2:
                t = tpp[:i] + (tpp[i] - 2,) + tpp[i + 1:]
                c = T.coeffs.get(t)
                if c is not None:
                    acc += multiplicity(t) * c
        if acc != 0:
            out[tpp] = acc / multiplicity(tpp)
    return SymTensor(n, m + 2, out)


def sym_mult_form(w, T: SymTensor) -> SymTensor:
    """Symmetrized product S(w^flat tensor T) with a vector w in R^n."""
    n, m = T.n, T.m
    out: dict[tuple[int, ...], complex] = {}
    for tp in monomials(n, m + 1):
        acc = 0
        for i in range(n):
            if tp[i] >= 1 and w[i] != 0:
                t = tp[:i] + (tp[i] - 1,) + tp[i + 1:]
                c = T.coeffs.get(t)
                if c is not None:
                    acc += w[i] * multiplicity(t) * c
        if acc != 0:
            out[tp] = acc / multiplicity(tp)
    return SymTensor(n, m + 1, out)


def contract(T: SymTensor, xi) -> SymTensor:
    """First-slot contraction with a vector; degree drops by one."""
    if T.m < 1:
        raise ValidationError("cannot contract a degree-0 tensor")
    xi = np.asarray(xi)
    out: dict[tuple[int, ...], complex] = {}
    for t, c in T.coeffs.items():
        for i in range(T.n):
            if t[i] >= 1 and xi[i] != 0:
                tp = t[:i] + (t[i] - 1,) + t[i + 1:]
                out[tp] = out.get(tp, 0) + xi[i] * c
    return SymTensor(T.n, T.m - 1, out)


def to_poly(T: SymTensor) -> HPoly:
    """The degree-m polynomial v -> u(v, ..., v)."""
    return HPoly(
        T.n, T.m, {t: multiplicity(t) * c for t, c in T.coeffs.items() if c != 0}
    )


def from_poly(P: HPoly) -> SymTensor:
    """The unique symmetric tensor whose polynomial is P."""
    return SymTensor(
        P.n, P.m, {a: c / multiplicity(a) for a, c in P.coeffs.items() if c != 0}
    )


@lru_cache(maxsize=None)
def _weights(n, m):
    """The multiplicities W of the degree-m multiplicity vectors, in the
    order of `monomials`: the tensor metric in coordinates is diag(W)."""
    return np.array([multiplicity(t) for t in monomials(n, m)], dtype=float)


@lru_cache(maxsize=None)
def _contraction_matrices(n, m):
    """iota_j, j < n: contraction with e_j from degree m to m-1, an
    (n, p_{m-1}, p_m) stack of 0/1 entries."""
    return _neighbour_stack(n, m, -1, lambda e: 1.0)


@lru_cache(maxsize=None)
def _sym_product_matrices(n, m):
    """S(e_j tensor .), j < n, from degree m to m+1, an (n, p_{m+1}, p_m)
    stack with entries mult(t)/mult(t + e_j) = (t_j + 1)/(m + 1)."""
    return _neighbour_stack(n, m, 1, lambda e: (e + 1) / (m + 1))


@lru_cache(maxsize=None)
def _trace_matrix(n, m):
    """The trace from degree m to m-2: sum_j iota_j iota_j."""
    return (_contraction_matrices(n, m - 1) @ _contraction_matrices(n, m)).sum(axis=0)


@lru_cache(maxsize=None)
def _tracefree_coords(n, m):
    """V, with V^T W V = I: columns are an orthonormal basis of the
    trace-free m-tensors, W^{-1/2} times the kernel of trace W^{-1/2} from
    `linalg.nullspace` at rtol 1e-12 (W^{-1/2} itself for m < 2)."""
    scale = 1 / np.sqrt(_weights(n, m))
    if m < 2:
        return np.diag(scale)
    return scale[:, None] * nullspace(_trace_matrix(n, m) * scale, 1e-12)[0]


def _in_tracefree_bases(stack, n, m_out, m_in):
    """V_out^T W_out X V_in for each map X of the stack: the trace-free
    part of its image, in the orthonormal trace-free bases."""
    V_out = _tracefree_coords(n, m_out)
    return (V_out.T * _weights(n, m_out)) @ stack @ _tracefree_coords(n, m_in)


@lru_cache(maxsize=None)
def _tracefree_contraction(n, m):
    """(n, h_{m-1}, h_m) stack: contraction with e_j between the trace-free
    bases, which it preserves."""
    return _in_tracefree_bases(_contraction_matrices(n, m), n, m - 1, m)


@lru_cache(maxsize=None)
def _tracefree_sym_product(n, m):
    """(n, h_{m+1}, h_m) stack: the trace-free part of S(e_j tensor .)."""
    return _in_tracefree_bases(_sym_product_matrices(n, m), n, m + 1, m)


def tracefree_project(T: SymTensor) -> SymTensor:
    """Orthogonal projection onto trace-free symmetric tensors, V V^T W t."""
    V = _tracefree_coords(T.n, T.m)
    return SymTensor.from_coords(T.n, T.m, V @ (V.T @ (_weights(T.n, T.m) * T.coords())))


def tracefree_basis(n: int, m: int) -> tuple[SymTensor, ...]:
    """Orthonormal basis (tensor metric) of the trace-free symmetric
    m-tensors: the columns of V, built on each call.  It spans the kernel
    of the trace, independently of the harmonic-polynomial route."""
    return tuple(SymTensor.from_coords(n, m, v) for v in _tracefree_coords(n, m).T)
