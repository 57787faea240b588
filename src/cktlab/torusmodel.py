"""Finite spectral model of the covariant flow derivative on the flat torus.

Sections of (degree-m twisted spherical harmonics) over T^n with the
trivial rank-r bundle are truncated to Fourier modes |k|_inf <= K.  The
flow derivative acts per mode as harmonic splitting of multiplication by
the linear form i(k.v); a connection couples modes through its Fourier
coefficients.  The raising part maps degree m to m+1 and the lowering
part maps m+1 to m; with sphere-orthonormal harmonic bases the adjoint
relation is literal conjugate transposition.

The flat torus is an integrable model, not a hyperbolic one: it serves
as a matrix-level testbed for the perturbation formulas (which are
operator-calculus facts independent of hyperbolicity), not as a
reproduction of chaotic dynamics.

Both sides are assembled as one sum of sparse Kronecker products over
modes x harmonics x fiber,

    sum_j diag(i k_j) (x) P_j (x) I_f
        + sum_{q in support} S_q (x) (sum_j P_j (x) F_j(hat Gamma_q)),

where P_j are the per-direction harmonic blocks, F_j the fiber action
of the connection coefficient (commutator action on endomorphism fibers)
and S_q the 0/1 matrix sending mode k to k+q.  The two assembly routes
share only this skeleton: `assemble` supplies the harmonic splitting of
multiplication by v_j, `assemble_via_D` the symmetric-tensor derivative
conjugated into the harmonic bases, so their agreement checks the blocks.

Mode couplings that would leave the truncation box are dropped, never
wrapped: wrapping would alias modes and silently break the symmetry of
the operator, while a symmetric drop preserves adjointness exactly.  A
dropped coupling is a pair (mode k, support mode q) with k+q outside the
box, counted once per side: nmodes - nnz(S_q) per q and side.

The matrices are block diagonal over coset blocks: the connection term
couples mode k only to k+q for q in the support, so the modes split into
the connected components of the mode graph of a matrix's sparsity
pattern.  Every dense factorization here runs per block: the kernels of
X+ and X- over the blocks of that matrix, with one rank cut against the
largest singular value of the whole matrix (`linalg.block_nullspace`),
and the spectra of the ejection scan over the blocks of X+(conn0) and the
connection derivative together, since X+(s) = X+(conn0) + s P is affine
in s and is assembled once.

This module is the assembling half of the torus model and imports
`scipy.sparse` at module level, so a subcommand pays for that import
before its timed work starts.  The numpy-only half, `TorusConfig`,
`mode_list`, `FourierConnection` and `eval_sections`, lives in `torus`
and is re-exported here; code that never assembles (the holonomy probe,
the text formats, the CLI's config handling) imports it from `torus`
and loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sparse

from .connalg import commutator_action_matrix, harmonic_mult_blocks
from .errors import ConvergenceError, ValidationError
from .linalg import block_nullspace
from .polyharm import _dual_matrix, dims
from .symtensor import (_tracefree_contraction, _tracefree_coords, _tracefree_sym_product,
                        _weights)
from .torus import FourierConnection, TorusConfig, _mode_index, eval_sections, mode_list

__all__ = [
    "TorusConfig",
    "FourierConnection",
    "TorusAssembly",
    "assemble",
    "assemble_via_D",
    "connection_plus_matrix",
    "ckt_kernel",
    "KernelReport",
    "second_variation_predict",
    "lambda_scan",
    "ScanResult",
    "build_generator",
    "generator_perturbation",
    "eval_sections",
    "xminus_kernel_basis",
]


def _fiber_action(config: TorusConfig, M: np.ndarray) -> np.ndarray:
    if config.bundle_kind == "vector":
        return M
    return commutator_action_matrix(M)


@dataclass
class TorusAssembly:
    """Sparse raising/lowering matrices over modes x harmonics x fiber."""

    config: TorusConfig
    xplus: sparse.csr_matrix
    xminus: sparse.csr_matrix
    dropped_couplings: int
    adjointness_defect: float

    def flat_index(self, mode, a, e, degree=None):
        cfg = self.config
        h = dims(cfg.n, cfg.m if degree is None else degree)[1]
        mi = _mode_index(cfg.n, cfg.K)[tuple(mode)]
        return (mi * h + a) * cfg.fdim + e


@lru_cache(maxsize=None)
def _shift_matrix(n, K, q):
    """0/1 matrix sending mode k to k + q; couplings leaving the box have no
    entry, so nmodes - nnz of them are dropped.  Shared by every caller:
    never mutate it."""
    modes = np.asarray(mode_list(n, K))
    target = modes + np.asarray(q)
    inside = (np.abs(target) <= K).all(axis=1)
    rows = np.ravel_multi_index((target[inside] + K).T, (2 * K + 1,) * n)
    cols = np.nonzero(inside)[0]
    return sparse.csr_matrix((np.ones(len(cols)), (rows, cols)), shape=(len(modes),) * 2)


def _connection_term(config, conn, blocks):
    """Sum over the support of S_q kron (sum_j P_j kron F_j(hat Gamma_q)), with
    the number of couplings dropped at the box edge."""
    if conn is not None and conn.r is not None and conn.r != config.r:
        raise ValidationError(
            f"fiber rank mismatch: config r={config.r}, connection r={conn.r}"
        )
    if conn is not None and conn.n is not None and conn.n != config.n:
        raise ValidationError(
            f"torus dimension mismatch: config n={config.n}, connection n={conn.n}"
        )
    nmodes = len(config.modes)
    h_out, h_in = blocks[0].shape
    total = sparse.csr_matrix(
        (nmodes * h_out * config.fdim, nmodes * h_in * config.fdim), dtype=complex)
    dropped = 0
    for q, mats in (conn.coeffs.items() if conn is not None else ()):
        shift = _shift_matrix(config.n, config.K, q)
        dropped += nmodes - shift.nnz
        coupling = sum(np.kron(P, _fiber_action(config, M)) for P, M in zip(blocks, mats))
        total = total + sparse.kron(shift, coupling, format="csr")
    return total, dropped


def _kron_assemble(config, conn, plus_blocks, minus_blocks) -> TorusAssembly:
    """Both sides of the flow derivative from per-direction harmonic blocks
    P_j (degree m -> m+1 for raising, m+1 -> m for lowering):
    sum_j diag(i k_j) kron P_j kron I_f plus the connection term.

    The blocks carry all of an assembly route's mathematics; this skeleton
    only places them over the modes and the fiber."""
    modes = np.asarray(config.modes)
    eye_f = np.eye(config.fdim)
    sides = []
    dropped = 0
    for blocks in (plus_blocks, minus_blocks):
        free = sum(sparse.kron(sparse.diags(1j * modes[:, j]), np.kron(P, eye_f), format="csr")
                   for j, P in enumerate(blocks))
        coupled, side_dropped = _connection_term(config, conn, blocks)
        sides.append(free + coupled)
        dropped += side_dropped
    xplus, xminus = sides
    diff = (xminus + xplus.conj().T).tocoo()
    defect = float(np.abs(diff.data).max()) if diff.nnz else 0.0
    return TorusAssembly(config, xplus, xminus, dropped, defect)


def assemble(config: TorusConfig, conn: FourierConnection | None = None) -> TorusAssembly:
    """Assemble the raising matrix (degree m -> m+1) and the lowering matrix
    (degree m+1 -> m) of the twisted flow derivative.

    The lowering matrix is assembled directly and verified against minus
    the conjugate transpose of the raising matrix; the two agree exactly
    because the truncation drop is symmetric.
    """
    asm = _kron_assemble(config, conn, harmonic_mult_blocks(config.n, config.m)[0],
                         harmonic_mult_blocks(config.n, config.m + 1)[1])
    if asm.adjointness_defect > 1e-12 * max(1.0, abs(asm.xplus).max()):
        raise ConvergenceError(f"adjointness defect {asm.adjointness_defect:.3e} in assembly")
    return asm


def connection_plus_matrix(config: TorusConfig, conn: FourierConnection):
    """Raising matrix of the connection part alone (the derivative of the
    assembly with respect to the connection)."""
    return _connection_term(config, conn, harmonic_mult_blocks(config.n, config.m)[0])[0]


# ---------------------------------------------------------------------------
# the symmetric-tensor assembly route


@lru_cache(maxsize=None)
def _tensor_route_data(n, m):
    """Per-direction tensor matrices and the basis conversion at degree m.

    T[j]: the trace-free part of S(e_j tensor .) from degree m to m+1,
    C[j]: the contraction with e_j from degree m+1 to m, both in
    symtensor's orthonormal trace-free bases,
    B: matrix of the restriction-to-sphere map from the orthonormal
    trace-free tensor basis V to the sphere-orthonormal harmonic basis,
    Q^T G applied to the basis polynomials' coefficients W V.
    """
    B = _dual_matrix(n, m) @ (_weights(n, m)[:, None] * _tracefree_coords(n, m))
    return _tracefree_sym_product(n, m), _tracefree_contraction(n, m + 1), B


def assemble_via_D(config: TorusConfig, conn: FourierConnection | None = None) -> TorusAssembly:
    """Assemble through the symmetric-derivative route.

    On mode k the symmetric derivative is i S(k tensor .) plus the
    connection symmetrization; the raising matrix is its trace-free
    projection conjugated into the harmonic bases, the lowering matrix is
    the adjoint derivative scaled by -(m+1)/(n+2m), where m is the
    configured degree.  Must agree entrywise with `assemble`.
    """
    n, m = config.n, config.m
    # level-m data holds both directions between degrees m and m+1
    T_m, C_m1, B_m = _tensor_route_data(n, m)
    B_m1 = _tensor_route_data(n, m + 1)[2]
    B_m_inv = np.linalg.inv(B_m)
    B_m1_inv = np.linalg.inv(B_m1)
    c_link = (m + 1) / (n + 2 * m)
    plus_blocks = B_m1 @ T_m @ B_m_inv
    # X_- = -c_link * pi_m D*; free D* on mode k is -i iota_k
    minus_blocks = c_link * (B_m @ C_m1 @ B_m1_inv)
    return _kron_assemble(config, conn, plus_blocks, minus_blocks)


# ---------------------------------------------------------------------------
# coset blocks, kernels and the ejection experiment


def _mode_blocks(config, *mats):
    """Connected components of the mode graph of the given matrices, grouped
    by size: one (count, size) array of mode indices per block size, in
    ascending size, each block's modes ascending, blocks ordered by their
    least mode.

    Each matrix acts between spaces over modes x harmonics x fiber; an
    entry at (row, col) couples mode row // (h_out f) to mode
    col // (h_in f), the widths read off the matrix's shape.  Every mode
    starts labelled by itself; each pass lowers both ends of every edge to
    the smaller of their labels and then replaces each label by its own
    label, until nothing changes, which leaves each component labelled by
    its least mode.
    """
    nmodes = len(config.modes)
    heads, tails = [], []
    for M in mats:
        coo = M.tocoo()
        heads.append(coo.row.astype(np.int64) // (M.shape[0] // nmodes))
        tails.append(coo.col.astype(np.int64) // (M.shape[1] // nmodes))
    a, b = np.divmod(np.unique(np.concatenate(heads) * nmodes + np.concatenate(tails)), nmodes)
    labels = np.arange(nmodes)
    while True:
        low = np.minimum(labels[a], labels[b])
        new = labels.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    size = np.bincount(labels, minlength=nmodes)[labels]
    order = np.lexsort((labels, size))  # stable: modes stay ascending within a block
    return [order[size[order] == nb].reshape(-1, nb) for nb in np.unique(size)]


def _block_index(modes, width):
    """Flat indices of the given modes in a space with `width` entries per mode."""
    return (modes[:, None] * width + np.arange(width)).ravel()


def _dense_blocks(config, M, groups):
    """The diagonal blocks of M over the mode blocks of `groups` (from
    `_mode_blocks` of M, possibly with other matrices), one dense
    (count, rows, cols) stack per group."""
    nmodes = len(config.modes)
    h_out, h_in = M.shape[0] // nmodes, M.shape[1] // nmodes
    group_of, block_of, place_of = (np.empty(nmodes, dtype=np.int64) for _ in range(3))
    for g, blocks in enumerate(groups):
        group_of[blocks] = g
        block_of[blocks] = np.arange(len(blocks))[:, None]
        place_of[blocks] = np.arange(blocks.shape[1])
    coo = M.tocoo()
    row_mode, row_off = np.divmod(coo.row.astype(np.int64), h_out)
    col_mode, col_off = np.divmod(coo.col.astype(np.int64), h_in)
    stacks = []
    for g, blocks in enumerate(groups):
        nb = blocks.shape[1]
        stack = np.zeros((len(blocks), nb * h_out, nb * h_in), dtype=M.dtype)
        sel = group_of[row_mode] == g
        np.add.at(stack, (block_of[row_mode[sel]], place_of[row_mode[sel]] * h_out + row_off[sel],
                          place_of[col_mode[sel]] * h_in + col_off[sel]), coo.data[sel])
        stacks.append(stack)
    return stacks


def _block_kernels(config, M, rtol):
    """([(modes of a block, its block-local kernel basis)], singular values of M)
    over the mode blocks of M, with one rank cut for the whole of M."""
    groups = _mode_blocks(config, M)
    kernels, s = block_nullspace(_dense_blocks(config, M, groups), rtol)
    return list(zip((modes for blocks in groups for modes in blocks), kernels)), s


def _scatter(parts, width, dim):
    """Full-length columns, block by block, from block-local bases."""
    out = np.zeros((dim, sum(k.shape[1] for _, k in parts)), dtype=complex)
    j = 0
    for modes, k in parts:
        out[_block_index(modes, width), j:j + k.shape[1]] = k
        j += k.shape[1]
    return out


@dataclass
class KernelReport:
    vectors: np.ndarray  # (dim, d), orthonormal columns
    singular_values: np.ndarray
    mode_support: list  # per kernel vector: modes carrying > 1e-8 of its mass

    @property
    def dim(self):
        return self.vectors.shape[1]


def ckt_kernel(asm: TorusAssembly) -> KernelReport:
    """Orthonormal kernel basis of the raising matrix with per-mode support.

    Each basis vector lives in one mode block of the raising matrix."""
    modes = mode_list(asm.config.n, asm.config.K)
    dim = asm.xplus.shape[1]
    width = dim // len(modes)
    parts, s = _block_kernels(asm.config, asm.xplus, 1e-10)
    support = []
    for block, k in parts:
        mass = np.linalg.norm(k.reshape(len(block), width, k.shape[1]), axis=1)
        support.extend([modes[j] for j in block[mass[:, i] > 1e-8]] for i in range(k.shape[1]))
    return KernelReport(_scatter(parts, width, dim), s, support)


def xminus_kernel_basis(asm: TorusAssembly) -> np.ndarray:
    """Orthonormal basis of ker(lowering) inside the degree-(m+1) space."""
    dim = asm.xminus.shape[1]
    parts, _ = _block_kernels(asm.config, asm.xminus, 1e-10)
    return _scatter(parts, dim // len(asm.config.modes), dim)


def second_variation_predict(asm0: TorusAssembly, A: FourierConnection, kernel) -> tuple:
    """Per-vector squared norms of the kernel-of-lowering projection of the
    perturbed raising applied to each zero mode, plus their total.

    The projection is made block by block over the mode blocks of the
    lowering matrix, with the rank cut of `xminus_kernel_basis`; the
    squared norm of a block's projection is that of its coordinates in the
    block's orthonormal kernel basis.

    Reported without the statement-vs-proof constant: lambda_scan's fit
    decides whether the curvature is 1 or 2 times this total.
    """
    return _second_variation(asm0, connection_plus_matrix(asm0.config, A), kernel)


def _second_variation(asm0: TorusAssembly, P, kernel) -> tuple:
    """second_variation_predict with the perturbed raising P = connection_plus_matrix(A)."""
    kernel = np.asarray(kernel)
    if kernel.ndim == 1:
        kernel = kernel[:, None]
    gram = kernel.conj().T @ kernel
    if np.abs(gram - np.eye(kernel.shape[1])).max() > 1e-8:
        raise ValidationError("kernel basis must be orthonormal")
    W = P @ kernel
    width = asm0.xminus.shape[1] // len(asm0.config.modes)
    sq = np.zeros(kernel.shape[1])
    for modes, V in _block_kernels(asm0.config, asm0.xminus, 1e-10)[0]:
        coords = V.conj().T @ W[_block_index(modes, width)]
        sq += np.real(np.sum(coords.conj() * coords, axis=0))
    per_vector = [float(x) for x in sq]
    return per_vector, float(sum(per_vector))


@dataclass
class ScanResult:
    s_values: np.ndarray
    lambdas: np.ndarray
    kernel_dims: np.ndarray
    predicted_second_variation: float
    window_radius: float
    lambda_dot_fit: float
    lambda_ddot_fit: float
    curvature_factor: float  # lambda_ddot_fit / (2 * predicted total)
    blocks: int  # mode blocks of X+(s)
    largest_block: tuple  # (rows, cols) of the largest block of X+(s)
    window_margin: float  # min over the grid of |eigenvalue - radius| / radius
    real_gram: bool  # X+(s) = i R(s), R real: Gram and spectra taken in float64

    def csv_rows(self):
        rows = ["s,lambda,kernel_dim,predicted_second_variation"]
        pred = repr(float(self.predicted_second_variation))
        for s, lam, kd in zip(self.s_values, self.lambdas, self.kernel_dims):
            rows.append(f"{float(s)!r},{float(lam)!r},{int(kd)},{pred}")
        return rows


def _adjoint(x):
    """Conjugate transposes of a (count, rows, cols) stack (transposes of a
    real one)."""
    return np.swapaxes(x.conj(), 1, 2)


def _stack_eigvalsh(grams):
    """Ascending eigenvalues of stacks of Hermitian (or real symmetric)
    blocks, all blocks together."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(g).ravel() for g in grams]))


def _gram_eigvalsh(stacks):
    """Ascending eigenvalues of X^H X from stacks of the diagonal blocks of X,
    with the Gram formed directly: the reference of the scan's expansion."""
    return _stack_eigvalsh([_adjoint(x) @ x for x in stacks])


def _gram_expansion(x0, dx):
    """(G0, C, D) with X(s)^H X(s) = G0 + s C + s^2 D for X(s) = x0 + s dx.

    G0 = x0^H x0, C = x0^H dx + (x0^H dx)^H and D = dx^H dx, one batched
    product each; every conjugate copy, and x0 when the caller holds no
    other reference to it, is dropped as soon as its last product is
    formed.  C is Hermitian by construction.  Real stacks give the real
    symmetric terms in real arithmetic."""
    xh = _adjoint(x0)
    g0 = xh @ x0
    c = xh @ dx
    del xh, x0
    dh = _adjoint(dx)
    d = dh @ dx
    del dh
    c += _adjoint(c)
    return g0, c, d


def lambda_scan(config: TorusConfig, conn0, A: FourierConnection, s_grid,
                window_radius=None, kernel_tol=None) -> ScanResult:
    """Sum of windowed eigenvalues of the perturbed Laplacian along a grid.

    The Laplacian is the conjugate-square of the raising matrix, so the
    windowed sum is real and non-negative and vanishes at s = 0.  A
    polynomial fit across the grid returns the first/second derivative
    estimates; the curvature factor against the predicted second
    variation settles the statement-vs-proof factor of two.  The window
    must hold exactly dim ker X+ at s = 0 eigenvalues at every grid point.

    X+(s) = X+(conn0) + s P with P = connection_plus_matrix(A) is affine in
    s, so it is assembled once; its eigenvalues come block by block over
    the mode blocks of X+(conn0) and P together.  The Laplacian is then
    quadratic in s: per block size, X+(s)^H X+(s) = G0 + s C + s^2 D with
    the three terms formed once (`_gram_expansion`), so a grid point costs
    one sum and one eigvalsh instead of a Gram product.  The expanded sum
    rounds differently from the directly formed Gram, so a windowed sum at
    s != 0 can differ from it in the last digits; a grid point s == 0
    reuses the eigenvalues of G0, so lambda(0) is exact as before.

    When every stored entry of X+(conn0) and P has real part exactly 0,
    X+(s) = i R(s) with R(s) real and X+(s)^H X+(s) = R(s)^T R(s), so the
    blocks are taken from the imaginary parts and the Gram terms and
    spectra are real (`real_gram`); any other input stays complex.
    """
    asm0 = assemble(config, conn0)
    P = connection_plus_matrix(config, A)
    groups = _mode_blocks(config, asm0.xplus, P)
    real_gram = not (asm0.xplus.data.real.any() or P.data.real.any())
    X0, dX = (_dense_blocks(config, M.imag if real_gram else M, groups)
              for M in (asm0.xplus, P))
    largest_block = X0[-1].shape[1:]
    # popping drops each dense stack as soon as its terms are formed
    expansion = [_gram_expansion(X0.pop(0), dX.pop(0)) for _ in groups]
    evs0 = _stack_eigvalsh([g0 for g0, _, _ in expansion])
    ev_max = float(evs0[-1]) if len(evs0) else 1.0
    kernel_thresh = kernel_tol if kernel_tol is not None else max(1e-11, 1e-13 * ev_max)
    nonzero = evs0[evs0 > kernel_thresh]
    if window_radius is None:
        if len(nonzero) == 0:
            raise ValidationError("unperturbed Laplacian has no spectral gap to window")
        window_radius = float(nonzero.min()) / 2
    if not (np.isfinite(window_radius) and window_radius > 0):
        raise ValidationError(f"window radius must be finite and > 0, got {window_radius!r}")
    if ((evs0 > kernel_thresh) & (evs0 < window_radius)).any():
        raise ValidationError(
            "window contains nonzero unperturbed eigenvalues; shrink the radius"
        )

    s_values = np.asarray(list(s_grid), dtype=float)
    if not np.isfinite(s_values).all() or len(np.unique(s_values)) < 3:
        raise ValidationError("the s grid needs >= 3 distinct finite points to fit "
                              "a second derivative")

    kernel0 = ckt_kernel(asm0)
    _, predicted = _second_variation(asm0, P, kernel0.vectors)

    lambdas = np.empty(len(s_values))
    kdims = np.empty(len(s_values), dtype=int)
    margin = np.inf
    for i, s in enumerate(s_values):
        evs = evs0 if s == 0 else _stack_eigvalsh(
            [g0 + s * c + (s * s) * d for g0, c, d in expansion])
        inside = evs[evs < window_radius]
        if len(inside) != kernel0.dim:
            raise ValidationError(
                f"{len(inside)} eigenvalues in the window at s = {float(s)!r}, but the "
                f"kernel at s = 0 has dimension {kernel0.dim}; shrink smax or the radius"
            )
        lambdas[i] = float(inside.sum())
        kdims[i] = int((evs < kernel_thresh).sum())
        margin = min(margin, float(np.abs(evs - window_radius).min()) / window_radius)

    coef = np.polynomial.polynomial.polyfit(s_values, lambdas, min(4, len(s_values) - 1))
    lam_dot = float(coef[1])
    lam_ddot = float(2 * coef[2])
    factor = lam_ddot / (2 * predicted) if predicted > 0 else float("nan")
    return ScanResult(s_values, lambdas, kdims, predicted, float(window_radius),
                      lam_dot, lam_ddot, factor, sum(len(g) for g in groups),
                      largest_block, margin, real_gram)


# ---------------------------------------------------------------------------
# the stacked generator over harmonic degrees 0..mmax


def _degree_stack(config, mmax, sides):
    """Square matrix on the degrees 0..mmax stack; sides(config at degree m)
    gives the (m -> m+1, m+1 -> m) pair placed below and above the diagonal.
    Returns (matrix, offsets) with offsets indexing the degree blocks."""
    offs = [0]
    for m in range(mmax + 1):
        offs.append(offs[-1] + config.space_dim(m))
    blocks = [[None] * (mmax + 1) for _ in range(mmax + 1)]
    for m in range(mmax + 1):
        blocks[m][m] = sparse.csr_matrix((config.space_dim(m),) * 2, dtype=complex)
    for m in range(mmax):
        blocks[m + 1][m], blocks[m][m + 1] = sides(replace(config, m=m))
    return sparse.bmat(blocks, format="csr"), offs


def build_generator(config: TorusConfig, conn, mmax: int):
    """Square skew-adjoint generator on the degrees 0..mmax stack.

    Truncation in the degree direction keeps skew-adjointness: cutting
    the raising map out of the top degree also cuts its adjoint back in.
    Returns (matrix, offsets) with offsets indexing the degree blocks.
    """
    def sides(cfg_m):
        asm = assemble(cfg_m, conn)
        return asm.xplus, asm.xminus

    return _degree_stack(config, mmax, sides)


def generator_perturbation(config: TorusConfig, A: FourierConnection, mmax: int):
    """Matrix of the connection perturbation on the degree stack (1-form action)."""
    def sides(cfg_m):
        plus = connection_plus_matrix(cfg_m, A)
        return plus, -plus.conj().T

    return _degree_stack(config, mmax, sides)
