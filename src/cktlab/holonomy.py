"""Parallel transport along torus geodesics and invariant-subbundle probes.

Transport solves the matrix ODE C' = -Gamma_{x(t)}(v) C along the
straight line x(t) = x0 + t v with classical fourth-order steps, run
again at half the step size for an error estimate.  `transport` is the
one driver: a segment carries one direction or a fan of directions from
one base point, all integrated together, and Gamma comes from one
batched `FourierConnection.value_at` call per chunk of steps.  The ODE
is linear, so each RK4 step is a fixed matrix polynomial in Gamma at the
step's stage times; the steps are built as such propagators a chunk at
a time and multiplied together before they act on C.  Every array of the
integration is an (r, r, G, ...) slab with the batch axes last, so an
r x r product is r broadcast multiply-adds over the whole batch instead
of one dispatch per small matrix; `transport` returns (G, r, r).  The
opacity probe transports a seeded fan of segments in one `transport`
call, which reports the largest error estimate and unitarity defect over
the fan, builds the commutant equations of all transports in one
`commutator_action_matrix` call, extracts the (numerical) commutant of
the transport set, and diagonalizes a random Hermitian element of it:
spectral projectors of flow-parallel Hermitian sections are themselves
flow-parallel, so each projector is reported with its invariance
defect, which evaluates the projector field, Gamma and the field's flow
derivative at all sampled points at once: every field is a Fourier sum
(`torus.fourier_sum`).  A `FourierConnection` is unitary and of known
(n, r) by construction, so nothing here checks either again.  Frames that
overflow, or whose error estimate is 1 or more (a unitary frame's entries
are at most 1, so no digit of C is right), are a ConvergenceError.  The
largest arrays, a transport's Gamma slab and the probe's commutant
system, are bounded at `linalg.ENTRY_CEILING` complex entries before
anything is allocated: a fiber rank or fan over it is a ValidationError.

The probe certifies only a finite transport set: its verdict for a
trivial commutant is worded as 'no invariant subbundle detected at
tolerance tau', never as a proof of opacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connalg import commutator_action_matrix
from .errors import ConvergenceError, ValidationError
from .linalg import check_entries, nullspace
from .torus import FourierConnection, TorusConfig, eval_sections, fourier_sum

__all__ = [
    "GeodesicSegment",
    "TransportResult",
    "transport",
    "invariance_defect",
    "opacity_probe",
    "OpacityReport",
    "parallel_frame_check",
    "FrameCheckResult",
]


@dataclass(frozen=True)
class GeodesicSegment:
    """Straight-line geodesic on the flat torus: x(t) = x0 + t v, 0 <= t <= length.

    v is one unit vector (n,) or a fan (G, n) of unit vectors, G >= 1
    geodesics from the same base point.
    """

    x0: np.ndarray
    v: np.ndarray
    length: float

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if x0.ndim != 1 or v.ndim not in (1, 2) or v.shape[-1] != len(x0) or not v.size:
            raise ValidationError(
                f"base point and direction must be vectors of one length, got shapes "
                f"{x0.shape} and {v.shape}"
            )
        if not (np.isfinite(x0).all() and np.isfinite(v).all()):
            raise ValidationError("base point and direction must be finite")
        if not (math.isfinite(self.length) and self.length > 0):
            raise ValidationError(f"geodesic length must be finite and > 0, got {self.length}")
        if np.abs(np.linalg.norm(v, axis=-1) - 1.0).max() > 1e-12:
            raise ValidationError("direction must be a unit vector")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "v", v)


@dataclass
class TransportResult:
    C: np.ndarray
    steps: int
    unitarity_defect: float
    error_estimate: float


# RK4 steps per batch of step propagators: one chunk holds (r, r, G, chunk)
# propagators, and a coarse chunk the Gamma values at the 4 * chunk + 1
# stage times of the two fine chunks it spans
_STEP_CHUNK = 32

# sampled (x, v) points of the invariance defect of each opacity candidate
_DEFECT_SAMPLES = 32


def _gamma_field(conn, x0, V):
    """t -> -Gamma_{x0 + t v_g}(v_g) at the times t, as an (r, r, G, T) slab."""

    def minus_gamma(t):
        vals = conn.value_at(x0 + t[:, None] * V[:, None, :], V[:, None, :])
        return np.negative(vals.transpose(2, 3, 0, 1), order="C")

    return minus_gamma


def _slab_matmul(A, B):
    """A @ B for (r, r, ...) slabs whose batch axes trail: r broadcast
    multiply-adds, one numpy call each over the whole batch."""
    out = A[:, :1] * B[:1]
    for k in range(1, A.shape[0]):
        out += A[:, k:k + 1] * B[k:k + 1]
    return out


def _chunk_propagator(G, h):
    """R_{c-1} ... R_1 R_0 for the c RK4 steps of size h whose start,
    midpoint and end values -Gamma are G[..., 0], G[..., 1], G[..., 2] for
    the first step, G[..., 2], G[..., 3], G[..., 4] for the next, and so
    on: G is an (r, r, G, 2c + 1) slab, the result (r, r, G).  The product
    is taken pairwise.
    """
    diag = np.arange(G.shape[0])
    G0, Gm, G1 = G[..., 0:-1:2], G[..., 1::2], G[..., 2::2]
    K1 = G0
    K2 = Gm + h / 2 * _slab_matmul(Gm, K1)
    K3 = Gm + h / 2 * _slab_matmul(Gm, K2)
    K4 = G1 + h * _slab_matmul(G1, K3)
    R = h / 6 * (K1 + 2 * K2 + 2 * K3 + K4)  # (r, r, G, c)
    R[diag, diag] += 1
    while R.shape[-1] > 1:  # R_{c-1} ... R_1 R_0, pairwise
        half = R.shape[-1] // 2
        pairs = _slab_matmul(R[..., 1:2 * half:2], R[..., 0:2 * half:2])
        R = np.concatenate([pairs, R[..., 2 * half:]], axis=-1)
    return R[..., 0]


def _identity_frames(conn, V):
    """(r, r, G) slab of identity frames, one per row of V."""
    return np.broadcast_to(np.eye(conn.r, dtype=complex)[..., None],
                           (conn.r, conn.r, len(V))).copy()


def _transport_pair(conn, x0, V, length, steps):
    """Classical RK4 for C_g' = -Gamma_{x0 + t v_g}(v_g) C_g, every row v_g of V
    at once, run at steps and at 2 * steps: returns (coarse, fine), each an
    (r, r, G) slab.

    The ODE is linear, so one step is C <- R C with the step propagator
    R = 1 + h/6 (K1 + 2 K2 + 2 K3 + K4), where K1 = G0, K2 = Gm (1 + h/2 K1),
    K3 = Gm (1 + h/2 K2), K4 = G1 (1 + h K3) and G0, Gm, G1 are -Gamma at
    the step's start, midpoint and end.  Each run goes in chunks of
    _STEP_CHUNK steps: a chunk's step propagators and a pairwise product
    that reduces them to one matrix, applied to C.  Every array is an
    (r, r, G, ...) slab with the batch axes last, so an r x r product is r
    broadcast multiply-adds over the whole chunk (_slab_matmul), not one
    dispatch per small matrix.  The fine step is h / 2 exactly, so the
    coarse stage times (j / 2) h are the fine step boundaries j (h / 2),
    the same floating-point numbers: one evaluation gives Gamma at the
    stage times of the two fine chunks a coarse chunk spans, and the
    coarse chunk reads every other value.  Each run still has its own
    chunks and products, so both equal separate runs bit for bit.
    """
    coarse, fine = _identity_frames(conn, V), _identity_frames(conn, V)
    if not conn.coeffs:
        return coarse, fine
    minus_gamma = _gamma_field(conn, x0, V)
    h, h_fine = length / steps, length / (2 * steps)
    for start in range(0, steps, _STEP_CHUNK):
        count = min(_STEP_CHUNK, steps - start)
        # the stage times of the fine steps 2 start ... 2 (start + count) - 1
        G = minus_gamma((2 * start + np.arange(4 * count + 1) / 2) * h_fine)
        coarse = _slab_matmul(_chunk_propagator(G[..., ::2], h), coarse)
        for fine_start in range(0, 2 * count, _STEP_CHUNK):
            fine_count = min(_STEP_CHUNK, 2 * count - fine_start)
            chunk = G[..., 2 * fine_start:2 * (fine_start + fine_count) + 1]
            fine = _slab_matmul(_chunk_propagator(chunk, h_fine), fine)
    return coarse, fine


def transport(conn: FourierConnection, seg: GeodesicSegment, steps: int = 128) -> TransportResult:
    """Parallel transport along a geodesic segment or a fan of them.

    Runs the fourth-order integrator at the requested step count and at
    half the step size (`_transport_pair`) and returns the finer result,
    (r, r) for one direction and (G, r, r) for a fan, with the largest
    error estimate max|fine - coarse| and unitarity defect max|C^H C - 1|
    over the fan.  conn is unitary by construction; frames that overflow,
    or an error estimate of 1 or more, raise ConvergenceError.
    """
    if seg.v.shape[-1] != conn.n:
        raise ValidationError(
            f"segment lies in dimension {seg.v.shape[-1]}, the connection's torus has "
            f"dimension {conn.n}"
        )
    if steps < 16:
        raise ValidationError("need at least 16 steps")
    V = seg.v.reshape(-1, len(seg.x0))
    # the largest array is a chunk's (r, r, G, 4 * chunk + 1) Gamma slab
    check_entries(f"the transport's Gamma slab of fiber rank r = {conn.r} over G = {len(V)} "
                  "geodesics", conn.r ** 2 * len(V) * (4 * min(steps, _STEP_CHUNK) + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        coarse, fine = (C.transpose(2, 0, 1) for C in
                        _transport_pair(conn, seg.x0, V, seg.length, steps))
        unit = float(np.abs(fine.conj().transpose(0, 2, 1) @ fine - np.eye(conn.r)).max())
        error = float(np.abs(fine - coarse).max())
    if not math.isfinite(unit + error):
        raise ConvergenceError(f"transport over length {float(seg.length)!r} overflowed at "
                               f"{2 * steps} steps; raise steps")
    if error >= 1:  # a unitary frame's entries are at most 1: no digit of C is right
        raise ConvergenceError(f"transport over length {float(seg.length)!r} did not converge "
                               f"at {2 * steps} steps (error estimate {error:.2e}); raise steps")
    return TransportResult(fine.reshape(seg.v.shape[:-1] + fine.shape[1:]), 2 * steps,
                           unit, error)


def invariance_defect(conn: FourierConnection, P, samples: int = 64, seed: int = 0) -> float:
    """Max over sampled (x, v) of || X.P + [Gamma_x(v), P] ||.

    P may be a constant matrix or a dict {Fourier mode q: matrix}, the
    field sum_q P_q e^{i q.x} over the torus of conn.  Vanishing defect is
    the flow-parallelism of the subbundle projector, i.e. invariance.  The
    flow derivative X.P at (x, v) is dP(v): the field with coefficients
    (i q.v) P_q, a Hermitian-valued `fourier_sum` and not a connection.
    """
    if samples < 1:
        raise ValidationError(f"need samples >= 1, got {samples}")
    n = conn.n
    if not isinstance(P, dict):
        P = {(0,) * n: P}
    rng = np.random.default_rng(seed)
    x, v = np.empty((samples, n)), np.empty((samples, n))
    for i in range(samples):  # x, then v, per sample
        x[i] = rng.uniform(0, 2 * math.pi, n)
        v[i] = rng.standard_normal(n)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    modes, Pq = list(P), np.array(list(P.values()), dtype=complex)
    Px = fourier_sum(modes, Pq, x)  # (samples, r, r)
    herm = np.abs(Px - Px.conj().swapaxes(1, 2)).max()
    idem = np.abs(Px @ Px - Px).max()
    if not (herm <= 1e-8 and idem <= 1e-8):
        raise ValidationError(
            f"field is not an orthogonal projector at a sample "
            f"(hermitian defect {herm:.2e}, idempotency defect {idem:.2e})"
        )
    dPq = np.array([[1j * c * M for c in q] for q, M in zip(modes, Pq)])  # (i q_j P_q)_j
    dP = fourier_sum(modes, np.einsum("...j,qjab->...qab", v, dPq), x)
    G = conn.value_at(x, v)
    return float(np.abs(G @ Px - Px @ G + dP).max())


@dataclass
class OpacityReport:
    commutant_dim: int
    projectors: list  # (rank, invariance defect, matrix)
    verdict: str
    tolerance: float
    transports: int
    transport_error: float  # max step-doubling error estimate over the geodesics
    unitarity_defect: float  # max |C^H C - 1| over the transported geodesics

    def csv_rows(self):
        rows = ["projector_index,rank,invariance_defect"]
        for i, (rank, defect, _) in enumerate(self.projectors):
            rows.append(f"{i},{rank},{defect!r}")
        rows.append(f"summary,commutant_dim={self.commutant_dim},verdict={self.verdict}")
        return rows


def opacity_probe(conn: FourierConnection, num_geodesics: int = 24,
                  length: float = 7.0, steps: int = 256, seed: int = 0) -> OpacityReport:
    """Probe for invariant subbundles through the transport commutant.

    Transports num_geodesics seeded segments from a common base point
    together (directions drawn from a seeded Gaussian, which avoids the
    closed rational-ratio geodesics of the torus almost surely), keeps the
    largest step-doubling error and unitarity defect, solves for the
    joint commutant of the transport set, and diagonalizes a random
    Hermitian commutant element into candidate invariant projectors.
    """
    n, r = conn.n, conn.r
    if num_geodesics < 1:
        raise ValidationError(f"need num_geodesics >= 1, got {num_geodesics}")
    check_entries(f"the commutant system of fiber rank r = {r} over G = {num_geodesics} "
                  "geodesics", num_geodesics * r ** 4)
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0, 2 * math.pi, n)
    V = np.empty((num_geodesics, n))
    for g in range(num_geodesics):
        v = rng.standard_normal(n)
        V[g] = v / np.linalg.norm(v)
    res = transport(conn, GeodesicSegment(x0, V, length), steps)

    # the commutant equations [C_g, W] = 0 of every transport, stacked
    rows = commutator_action_matrix(res.C).reshape(-1, r * r)
    null, _ = nullspace(rows, 1e-6)  # (r^2, commutant_dim)
    cdim = null.shape[1]

    projectors = []
    if cdim > 1:
        coeffs = rng.standard_normal(cdim)
        H = sum(c * null[:, i].reshape(r, r) for i, c in enumerate(coeffs))
        H = (H + H.conj().T) / 2
        evals, evecs = np.linalg.eigh(H)
        spread = max(evals[-1] - evals[0], 1e-12)
        cuts = np.flatnonzero(np.diff(evals) > 1e-4 * spread) + 1
        for group in np.split(evecs, cuts, axis=1):
            Pg = group @ group.conj().T
            defect = invariance_defect(conn, Pg, samples=_DEFECT_SAMPLES, seed=seed + 1)
            projectors.append((group.shape[1], defect, Pg))

    if cdim == 1:
        verdict = "opaque: no invariant subbundle detected at tolerance 1e-6"
    elif cdim >= r * r:
        verdict = "transparent: every subbundle invariant at tolerance 1e-6"
    else:
        verdict = "not opaque: invariant subbundle candidates found"
    return OpacityReport(cdim, projectors, verdict, 1e-6, num_geodesics,
                         res.error_estimate, res.unitarity_defect)


@dataclass
class FrameCheckResult:
    gram_drift: float
    min_singular_value: float
    pointwise_independent: bool


def parallel_frame_check(config: TorusConfig, vectors, samples: int = 100,
                         seed: int = 0, degree=None) -> FrameCheckResult:
    """Pointwise Gram stability and independence of kernel sections.

    Evaluates the sections at seeded (x, v) samples and reports the max
    deviation of the pointwise Gram matrix from its value at the first
    sample, plus the smallest singular value of the pointwise section
    matrix (>= 1e-6 for genuine kernel frames of a unitary generator).
    """
    if samples < 1:
        raise ValidationError(f"need samples >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, 2 * math.pi, (samples, config.n))
    vs = rng.standard_normal((samples, config.n))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    vals = eval_sections(config, vectors, xs, vs, degree=degree)  # (N, fdim, p)
    gram = vals.conj().swapaxes(1, 2) @ vals
    drift = float(np.abs(gram - gram[0]).max())
    sv = np.linalg.svd(vals, compute_uv=False)  # (N, min(fdim, p)), descending
    min_sv = float(sv[:, -1].min()) if sv.shape[1] else 0.0
    return FrameCheckResult(drift, min_sv, min_sv >= 1e-6)
