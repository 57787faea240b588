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

Both sides are one sum of Kronecker products over modes x harmonics x
fiber,

    sum_j diag(i k_j) (x) P_j (x) I_f
        + sum_{q in support} S_q (x) (sum_j P_j (x) F_j(hat Gamma_q)),

where P_j are the per-direction harmonic blocks, F_j the fiber action
of the connection coefficient (commutator action on endomorphism fibers)
and S_q the 0/1 matrix sending mode k to k+q.  No product is formed as
a sparse matrix: the dense free blocks F_k = sum_j (i k_j) P_j (x) I_f
and couplings C_q = sum_j P_j (x) F_j(hat Gamma_q) are placed at the mode
blocks (k, k) and (k+q, k) by index arithmetic, from cached (k, k+q)
mode-index pairs, and each side becomes one `linalg.CSR` record.  The two
assembly routes share only this skeleton: `assemble` supplies the
harmonic splitting of multiplication by v_j, `assemble_via_D` the
symmetric-tensor derivative conjugated into the harmonic bases, so
their agreement checks the blocks.

Mode couplings that would leave the truncation box are dropped, never
wrapped: wrapping would alias modes and silently break the symmetry of
the operator, while a symmetric drop preserves adjointness exactly.  A
dropped coupling is a pair (mode k, support mode q) with k+q outside the
box, counted once per side: nmodes - nnz(S_q) per q and side.

The matrices are block diagonal over coset blocks: the connection term
couples mode k only to k+q for q in the support, so the modes split into
the connected components of the mode graph of a matrix's sparsity
pattern.  Every dense factorization here runs per block, with the blocks
of one size stacked: the kernels of X+ and X- over the blocks of that
matrix, with one rank cut against the largest singular value of the
whole matrix (`linalg.block_nullspace`), and the spectra of the ejection
scan over the blocks of X+(conn0) and the connection derivative
together, since X+(s) = X+(conn0) + s P is affine in s and is assembled
once.  A stack's kernel vectors are read from its V^H factors through
the mask of each block's rank and scattered with one indexed assignment,
so no Python loop runs over the blocks.  As X- = -X+^H, the ejection
prediction projects onto ker X- = (ran X+)^perp with X+'s U factors.

This module is the assembling half of the torus model.  Like every
module of ckt-lab it runs on numpy alone, so no subcommand loads scipy.
The half that assembles nothing, `TorusConfig`, `mode_list`,
`FourierConnection` and `eval_sections`, lives in `torus` and is
re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial

from .connalg import commutator_action_matrix, harmonic_mult_blocks
from .errors import ConvergenceError, ValidationError
from .linalg import CSR, block_nullspace, rank_cut
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
    xplus: CSR
    xminus: CSR
    dropped_couplings: int
    adjointness_defect: float

    def flat_index(self, mode, a, e, degree=None):
        cfg = self.config
        h = dims(cfg.n, cfg.m if degree is None else degree)[1]
        mi = _mode_index(cfg.n, cfg.K)[tuple(mode)]
        return (mi * h + a) * cfg.fdim + e


@lru_cache(maxsize=None)
def _shift_pairs(n, K, q):
    """(k, k + q) as mode-index arrays over the modes k with k + q inside the
    box; the nmodes - len(k) others are the couplings dropped for q.  The
    arrays are cached, so they are read-only."""
    modes = np.asarray(mode_list(n, K))
    target = modes + np.asarray(q)
    inside = (np.abs(target) <= K).all(axis=1)
    pairs = (np.nonzero(inside)[0],
             np.ravel_multi_index((target[inside] + K).T, (2 * K + 1,) * n))
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _side(config, conn, blocks, free=True):
    """(CSR record, couplings dropped at the box edge) of one side, from the
    per-direction harmonic blocks P_j.

    Each coupling C_q = sum_j P_j kron F_j(hat Gamma_q) is placed at the
    mode blocks (k + q, k) with k + q inside the box.  With `free`, the
    free block F_k = sum_j (i k_j) P_j kron I_f is placed at (k, k), C_0
    (0 when q = 0 is not in the support) added to it; without, the side is
    the connection term alone.  Every sum runs in j order and starts from
    0, so no entry has a -0.0 part and the entries are those of the
    Kronecker sum of the module docstring bit for bit.  Exact zeros are
    dropped.  No connection (None) is the config's zero connection.
    """
    conn = FourierConnection.zero(config.r, config.n) if conn is None else conn
    if (conn.n, conn.r) != (config.n, config.r):
        raise ValidationError(f"connection (n, r) = {(conn.n, conn.r)} does not match the "
                              f"config's {(config.n, config.r)}")
    modes = np.asarray(config.modes)
    nmodes = len(modes)
    height, width = (h * config.fdim for h in blocks[0].shape)  # of one mode block
    couplings = {q: sum(np.kron(P, _fiber_action(config, M)) for P, M in zip(blocks, mats))
                 for q, mats in conn.coeffs.items()}
    placed = []  # (target modes, source modes, entry rows, entry cols, values)
    dropped = 0
    for q, coupling in couplings.items():
        source, target = _shift_pairs(config.n, config.K, q)
        dropped += nmodes - len(source)
        if any(q) or not free:
            a, b = np.nonzero(coupling)
            placed.append((target, source, a, b, coupling[a, b]))
    if free:
        free_blocks = np.stack([np.kron(P, np.eye(config.fdim)) for P in blocks])
        c0 = couplings.get((0,) * config.n, np.zeros((height, width)))
        a, b = np.nonzero(free_blocks.any(axis=0) | (c0 != 0))
        values = sum((1j * modes[:, j])[:, None] * Pf[a, b] for j, Pf in enumerate(free_blocks))
        everywhere = np.arange(nmodes)
        placed.append((everywhere, everywhere, a, b, values + c0[a, b]))
    shape = (nmodes * height, nmodes * width)
    if not placed:
        return CSR.from_coo([], [], np.zeros(0, dtype=complex), shape), dropped
    rows, cols, data = (np.concatenate(part) for part in zip(*(
        ((target[:, None] * height + a).ravel(), (source[:, None] * width + b).ravel(),
         np.broadcast_to(values, (len(source), len(a))).ravel())
        for target, source, a, b, values in placed)))
    return CSR.from_coo(rows, cols, data, shape), dropped


def _assemble_sides(config, conn, plus_blocks, minus_blocks) -> TorusAssembly:
    """Both sides of the flow derivative from per-direction harmonic blocks
    P_j (degree m -> m+1 for raising, m+1 -> m for lowering).

    The blocks carry all of an assembly route's mathematics; `_side` only
    places them over the modes and the fiber."""
    (xplus, plus_dropped), (xminus, minus_dropped) = (
        _side(config, conn, blocks) for blocks in (plus_blocks, minus_blocks))
    defect = float(np.abs((xminus + xplus.adjoint()).data).max(initial=0.0))
    return TorusAssembly(config, xplus, xminus, plus_dropped + minus_dropped, defect)


def assemble(config: TorusConfig, conn: FourierConnection | None = None) -> TorusAssembly:
    """Assemble the raising matrix (degree m -> m+1) and the lowering matrix
    (degree m+1 -> m) of the twisted flow derivative.

    The lowering matrix is assembled directly and verified against minus
    the conjugate transpose of the raising matrix; the two agree exactly
    because the truncation drop is symmetric.
    """
    asm = _assemble_sides(config, conn, harmonic_mult_blocks(config.n, config.m)[0],
                          harmonic_mult_blocks(config.n, config.m + 1)[1])
    if asm.adjointness_defect > 1e-12 * max(1.0, np.abs(asm.xplus.data).max(initial=0.0)):
        raise ConvergenceError(f"adjointness defect {asm.adjointness_defect:.3e} in assembly")
    return asm


def connection_plus_matrix(config: TorusConfig, conn: FourierConnection):
    """Raising matrix of the connection part alone (the derivative of the
    assembly with respect to the connection)."""
    return _side(config, conn, harmonic_mult_blocks(config.n, config.m)[0], free=False)[0]


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
    return _assemble_sides(config, conn, plus_blocks, minus_blocks)


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
    heads, tails = (np.concatenate(ends) for ends in zip(*(
        (M.row // (M.shape[0] // nmodes), M.indices // (M.shape[1] // nmodes)) for M in mats)))
    graph = CSR.from_coo(heads, tails, np.ones(len(heads)), (nmodes, nmodes))  # each edge once
    a, b = graph.row, graph.indices
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
    return [order[size[order] == nb].reshape(-1, nb) for nb in np.flatnonzero(np.bincount(size))]


def _block_index(blocks, width):
    """Flat indices of each block's modes in a space with `width` entries per
    mode: (count, size * width) for a (count, size) array of mode blocks."""
    return (blocks[:, :, None] * width + np.arange(width)).reshape(len(blocks), -1)


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
    row_mode, row_off = np.divmod(M.row, h_out)
    col_mode, col_off = np.divmod(M.indices, h_in)
    stacks = []
    for g, blocks in enumerate(groups):
        nb = blocks.shape[1]
        stack = np.zeros((len(blocks), nb * h_out, nb * h_in), dtype=M.data.dtype)
        sel = group_of[row_mode] == g
        np.add.at(stack, (block_of[row_mode[sel]], place_of[row_mode[sel]] * h_out + row_off[sel],
                          place_of[col_mode[sel]] * h_in + col_off[sel]), M.data[sel])
        stacks.append(stack)
    return stacks


# the ker X+- rule: a singular value at most this times the largest one, over
# all blocks of the matrix, is zero
_KERNEL_RTOL = 1e-10


def _kernel_columns(config, M):
    """(orthonormal kernel basis of M as full-length columns, singular values
    of M, [(flat row and column indices of the blocks' modes, U stack, V^H
    stack, ranks)] per block size) over the mode blocks of M, with one rank
    cut for the whole of M (`linalg.block_nullspace` at _KERNEL_RTOL): block
    by block, each block's vectors in the order of its V^H rows, scattered
    with one assignment per block size."""
    groups = _mode_blocks(config, M)
    factors, s = block_nullspace(_dense_blocks(config, M, groups), _KERNEL_RTOL)
    height, width = (d // len(config.modes) for d in M.shape)
    stacks = [(_block_index(blocks, height), _block_index(blocks, width), *f)
              for blocks, f in zip(groups, factors)]
    masks = [np.arange(vt.shape[1]) >= rank[:, None] for _, _, _, vt, rank in stacks]
    out = np.zeros((M.shape[1], sum(int(mask.sum()) for mask in masks)), dtype=complex)
    j = 0
    for (_, index, _, vt, _), mask in zip(stacks, masks):
        rows = vt[mask]
        out[index[np.nonzero(mask)[0]], j + np.arange(len(rows))[:, None]] = rows.conj()
        j += len(rows)
    return out, s, stacks


@dataclass
class KernelReport:
    vectors: np.ndarray  # (dim, d), orthonormal columns
    singular_values: np.ndarray
    mode_support: list  # per kernel vector: modes carrying > 1e-8 of its mass
    rank_cut: float  # _KERNEL_RTOL * the largest singular value
    min_kept: float  # smallest singular value above the cut (nan if none)
    max_cut: float  # largest singular value at or below the cut (nan if none)

    @property
    def dim(self):
        return self.vectors.shape[1]

    def rank_margin(self):
        """The `# rank_margin:` comment of ckt_kernel.csv."""
        return (f"rank_margin: cut={self.rank_cut!r} min_kept={self.min_kept!r} "
                f"max_cut={self.max_cut!r}")


def ckt_kernel(asm: TorusAssembly) -> KernelReport:
    """Orthonormal kernel basis of the raising matrix with per-mode support
    and the margin of its rank cut.

    Each basis vector lives in one mode block of the raising matrix.  The
    cut is _KERNEL_RTOL times the largest singular value; a kept singular
    value near it or a dropped one near it marks a kernel dimension that a
    small change of tolerance would move."""
    modes = mode_list(asm.config.n, asm.config.K)
    vectors, s, _ = _kernel_columns(asm.config, asm.xplus)
    width = vectors.shape[0] // len(modes)
    mass = np.linalg.norm(vectors.reshape(len(modes), width, vectors.shape[1]), axis=1)
    support = [[modes[j] for j in np.flatnonzero(col > 1e-8)] for col in mass.T]
    cut = rank_cut(s, _KERNEL_RTOL)
    kept, dropped = s[s > cut], s[s <= cut]
    return KernelReport(vectors, s, support, float(cut),
                        float(kept[-1]) if len(kept) else float("nan"),
                        float(dropped[0]) if len(dropped) else float("nan"))


def xminus_kernel_basis(asm: TorusAssembly) -> np.ndarray:
    """Orthonormal basis of ker(lowering) inside the degree-(m+1) space."""
    return _kernel_columns(asm.config, asm.xminus)[0]


def second_variation_predict(asm0: TorusAssembly, A: FourierConnection) -> tuple:
    """Per-vector squared norms of the kernel-of-lowering projection of the
    perturbed raising applied to each zero mode of the raising matrix
    (`ckt_kernel`'s basis), plus their total.

    X- = -X+^H, so the projection is the residual of the projection onto
    ran X+ (`_second_variation`).

    Reported without the statement-vs-proof constant: lambda_scan's fit
    decides whether the curvature is 1 or 2 times this total.
    """
    return _second_variation(asm0, connection_plus_matrix(asm0.config, A))[1:]


def _second_variation(asm0: TorusAssembly, P) -> tuple:
    """(dim ker X+, per-vector squared norms, total) of second_variation_predict
    with P = connection_plus_matrix(A): one SVD of X+'s blocks gives the zero
    modes K and each block's range basis U_r (U's first rank columns, a
    stack's others zeroed); the blocks' residuals (1 - U_r U_r^H) W[rows],
    W = P K, make up the projection onto ker X-.  The residual is formed, as
    |w|^2 - |U_r^H w|^2 loses all relative accuracy when P u is almost in ran X+.
    W is the one sparse product of the prediction; `CSR @` adds it up entry
    layer by entry layer, so it holds no array larger than W besides P and K.
    """
    K, _, stacks = _kernel_columns(asm0.config, asm0.xplus)
    W = P @ K
    sq = np.zeros(W.shape[1])
    for rows, _, u, _, rank in stacks:
        u = u * (np.arange(u.shape[2]) < rank[:, None])[:, None, :]
        w = W[rows]
        residual = w - u @ (_adjoint(u) @ w)
        sq += np.real(residual.conj() * residual).sum(axis=(0, 1))
    return W.shape[1], [float(x) for x in sq], float(sum(sq))


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
    must hold exactly dim ker X+ at s = 0 eigenvalues at every grid point;
    dim ker X+ and the prediction come from one SVD (`_second_variation`).

    X+(s) = X+(conn0) + s P with P = connection_plus_matrix(A) is affine in
    s, so it is assembled once; its eigenvalues come block by block over
    the mode blocks of X+(conn0) and P together.  The Laplacian is then
    quadratic in s: per block size, X+(s)^H X+(s) = G0 + s C + s^2 D with
    the three terms formed once (`_gram_expansion`), so a grid point costs
    one sum and one eigvalsh instead of a Gram product.  The expanded sum
    rounds differently from the directly formed Gram, so a windowed sum at
    s != 0 can differ from it in the last digits; a grid point s == 0
    reuses the eigenvalues of G0, so lambda(0) is exact as before.  A grid
    point whose Laplacian overflows (not finite) raises ValidationError
    before any eigenvalue is taken.  So does a grid too narrow to resolve
    a prediction > 0, whose max |lambda(s)| is within 10 times the
    rounding b eps lambda_max of the largest Gram block (size b).

    When every stored entry of X+(conn0) and P has real part exactly 0,
    X+(s) = i R(s) with R(s) real and X+(s)^H X+(s) = R(s)^T R(s), so the
    blocks are taken from the imaginary parts and the Gram terms and
    spectra are real (`real_gram`); any other input stays complex.
    """
    s_values = np.asarray(list(s_grid), dtype=float)
    if not np.isfinite(s_values).all() or len(set(s_values.tolist())) < 3:
        raise ValidationError("the s grid needs >= 3 distinct finite points to fit "
                              "a second derivative")

    asm0 = assemble(config, conn0)
    P = connection_plus_matrix(config, A)
    groups = _mode_blocks(config, asm0.xplus, P)
    real_gram = not (asm0.xplus.data.real.any() or P.data.real.any())
    X0, dX = (_dense_blocks(config, replace(M, data=M.data.imag) if real_gram else M, groups)
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

    kernel_dim, _, predicted = _second_variation(asm0, P)

    lambdas = np.empty(len(s_values))
    kdims = np.empty(len(s_values), dtype=int)
    margin = np.inf
    for i, s in enumerate(s_values):
        if s == 0:
            evs = evs0
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                grams = [g0 + s * c + (s * s) * d for g0, c, d in expansion]
            if not all(np.isfinite(g).all() for g in grams):
                raise ValidationError(f"the Laplacian at s = {float(s)!r} is not finite; "
                                      "shrink smax")
            evs = _stack_eigvalsh(grams)
        inside = evs[evs < window_radius]
        if len(inside) != kernel_dim:
            raise ValidationError(
                f"{len(inside)} eigenvalues in the window at s = {float(s)!r}, but the "
                f"kernel at s = 0 has dimension {kernel_dim}; shrink smax or the radius"
            )
        lambdas[i] = float(inside.sum())
        kdims[i] = int((evs < kernel_thresh).sum())
        margin = min(margin, float(np.abs(evs - window_radius).min()) / window_radius)

    # on the eject demo the curvature factor was off by up to 12% when max |lambda(s)|
    # was below 10 times the rounding, and by at most 1.2% from 10 to 250 times it
    rounding = largest_block[1] * np.finfo(float).eps * ev_max
    if predicted > 0 and np.abs(lambdas).max() <= 10 * rounding:
        raise ValidationError(f"lambda(s) stays within 10 times its rounding {rounding:.1e}: "
                              f"smax = {float(np.abs(s_values).max())!r} is too small")
    coef = polynomial.polyfit(s_values, lambdas, min(4, len(s_values) - 1))
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
    empty = np.zeros(0, dtype=np.int64)
    placed = [(empty, empty, np.zeros(0, dtype=complex))]
    for m in range(mmax):
        down, up = sides(replace(config, m=m))
        placed += [(offs[m + 1] + down.row, offs[m] + down.indices, down.data),
                   (offs[m] + up.row, offs[m + 1] + up.indices, up.data)]
    rows, cols, data = (np.concatenate(part) for part in zip(*placed))
    return CSR.from_coo(rows, cols, data, (offs[-1],) * 2), offs


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
        adjoint = plus.adjoint()
        return plus, replace(adjoint, data=-adjoint.data)

    return _degree_stack(config, mmax, sides)
