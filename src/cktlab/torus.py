"""The numpy-only half of the torus model: truncation, connections, sections.

`TorusConfig` fixes the truncation (torus dimension n, Fourier box
|k|_inf <= K, harmonic degree m, fiber rank r and bundle kind),
`mode_list` enumerates the box, `fourier_sum` evaluates a matrix field
sum_q c_q e^{i q.x} at a batch of points, `FourierConnection` holds a
connection 1-form by its Fourier coefficients and evaluates it through
`fourier_sum`, and `eval_sections` evaluates coefficient vectors over
(mode, harmonic, fiber) as functions on T^n x S^{n-1}.

Nothing here assembles a matrix, so this module imports no scipy: the
holonomy probe, the text formats and the CLI's config handling read it
directly.  The sparse raising/lowering assembly, the kernels and the
ejection scan live in `torusmodel`, which imports `scipy.sparse` and
re-exports every name defined here but `fourier_sum`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import ValidationError
from .polyharm import dims, harmonic_basis

__all__ = [
    "TorusConfig",
    "FourierConnection",
    "fourier_sum",
    "mode_list",
    "eval_sections",
]


@dataclass(frozen=True)
class TorusConfig:
    """Truncation parameters of the torus model."""

    n: int
    K: int
    m: int
    r: int
    bundle_kind: str = "vector"

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("need n >= 2")
        if self.K < 0 or self.m < 0 or self.r < 1:
            raise ValidationError("need K >= 0, m >= 0, r >= 1")
        if self.bundle_kind not in ("vector", "endomorphism"):
            raise ValidationError("bundle_kind must be 'vector' or 'endomorphism'")

    @property
    def fdim(self) -> int:
        return self.r if self.bundle_kind == "vector" else self.r * self.r

    @property
    def modes(self) -> tuple:
        return mode_list(self.n, self.K)

    def space_dim(self, degree=None) -> int:
        deg = self.m if degree is None else degree
        return len(self.modes) * dims(self.n, deg)[1] * self.fdim


@lru_cache(maxsize=None)
def mode_list(n, K):
    return tuple(product(range(-K, K + 1), repeat=n))


@lru_cache(maxsize=None)
def _mode_index(n, K):
    return {k: i for i, k in enumerate(mode_list(n, K))}


def fourier_sum(modes, coeffs, x):
    """sum_q coeffs_q e^{i q.x} at the points x.

    modes: (Q, n); coeffs: (..., Q, r, r), which may vary with the point,
    since its leading axes broadcast against those of x: (..., n).
    Returns (..., r, r).
    """
    phase = np.exp(1j * (np.asarray(x, dtype=float) @ np.asarray(modes, dtype=float).T))
    return np.einsum("...q,...qab->...ab", phase, coeffs)


class FourierConnection:
    """Fourier coefficients of a connection 1-form on the torus.

    coeffs maps a mode q to the tuple of n matrices (value on each
    coordinate direction).  Pointwise skew-Hermitian reality demands
    hat(Gamma)_q^dagger = -hat(Gamma)_{-q}, which is checked on
    construction.
    """

    def __init__(self, coeffs=None, r=None, n=None, check_reality=True):
        self.coeffs = {}
        if coeffs:
            for q, mats in coeffs.items():
                mats = tuple(np.asarray(M, dtype=complex) for M in mats)
                self.coeffs[tuple(int(c) for c in q)] = mats
        shapes = {M.shape for mats in self.coeffs.values() for M in mats}
        if len(shapes) > 1 or any(len(sh) != 2 or sh[0] != sh[1] for sh in shapes):
            raise ValidationError("all coefficient matrices must be square of one fiber rank")
        self._r = shapes.pop()[0] if shapes else r
        ns = {len(q) for q in self.coeffs}
        if len(ns) > 1:
            raise ValidationError("all modes must share the torus dimension")
        self._n = ns.pop() if ns else n
        for q, mats in self.coeffs.items():
            if len(mats) != len(q):
                raise ValidationError(
                    f"mode {q} carries {len(mats)} direction matrices, the torus needs {len(q)}"
                )
        self.unitary = bool(check_reality)
        if check_reality:
            self._validate_reality()

    def _validate_reality(self):
        for q, mats in self.coeffs.items():
            mq = tuple(-c for c in q)
            other = self.coeffs.get(mq)
            if other is None:
                raise ValidationError(f"mode {q} present without its opposite {mq}")
            for M, Mo in zip(mats, other):
                scale = max(1.0, np.abs(M).max())
                if np.abs(M.conj().T + Mo).max() > 1e-12 * scale:
                    raise ValidationError(
                        f"reality violated at mode {q}: conj-transpose must equal "
                        "minus the opposite-mode coefficient"
                    )

    @property
    def r(self):
        return self._r

    @property
    def n(self):
        return self._n

    @classmethod
    def zero(cls, r=None, n=None):
        return cls({}, r=r, n=n)

    @classmethod
    def cosine_mode(cls, n, q, j, M):
        """Connection M cos(q.x) dx_j (skew-Hermitian M gives a unitary form)."""
        M = np.asarray(M, dtype=complex)
        r = M.shape[0]
        q = tuple(int(c) for c in q)
        mats_q = [np.zeros((r, r), dtype=complex) for _ in range(n)]
        if all(c == 0 for c in q):
            # cos(0) = 1: the single coefficient carries the full matrix
            mats_q[j] = M
            return cls({q: tuple(mats_q)})
        mats_q[j] = M / 2
        mats_mq = [np.zeros((r, r), dtype=complex) for _ in range(n)]
        mats_mq[j] = -M.conj().T / 2
        return cls({q: tuple(mats_q), tuple(-c for c in q): tuple(mats_mq)})

    @classmethod
    def constant(cls, n, mats):
        """x-independent connection with the given direction matrices."""
        return cls({(0,) * n: tuple(np.asarray(M, dtype=complex) for M in mats)})

    def scaled(self, s):
        return FourierConnection(
            {q: tuple(s * M for M in mats) for q, mats in self.coeffs.items()},
            r=self._r, n=self._n, check_reality=self.unitary and np.isrealobj(s),
        )

    def plus(self, other):
        out = {q: list(mats) for q, mats in self.coeffs.items()}
        for q, mats in other.coeffs.items():
            if q in out:
                out[q] = [a + b for a, b in zip(out[q], mats)]
            else:
                out[q] = list(mats)
        return FourierConnection({q: tuple(m) for q, m in out.items()},
                                 r=self._r or other._r, n=self._n or other._n,
                                 check_reality=self.unitary and other.unitary)

    def value_at(self, x, v) -> np.ndarray:
        """Gamma_x(v): the fiber matrix at base points x and directions v.

        x and v have shape (..., n) and broadcast against each other; the
        result is (..., r, r).  v is contracted with the coefficients
        first, then `fourier_sum` adds the modes up.  An empty connection
        built without a fiber rank has no value: ValidationError.
        """
        x, v = np.asarray(x, dtype=float), np.asarray(v)
        if self._r is None:
            raise ValidationError("connection does not determine a fiber rank")
        if not self.coeffs:
            shape = np.broadcast_shapes(x.shape[:-1], v.shape[:-1])
            return np.zeros(shape + (self._r, self._r), dtype=complex)
        A = np.einsum("...j,qjab->...qab", v, np.array(list(self.coeffs.values())))
        return fourier_sum(list(self.coeffs), A, x)

    def pointwise_skew_defect(self, samples) -> float:
        """Max non-skewness of Gamma_x(v) over (x, v) samples (0 by reality);
        nan when any sample is non-finite."""
        samples = list(samples)
        if not samples:
            return 0.0
        xs, vs = (np.array(arrs, dtype=float) for arrs in zip(*samples))
        M = self.value_at(xs, vs)
        return float(np.abs(M + M.conj().swapaxes(-1, -2)).max())


def eval_sections(config: TorusConfig, vectors, xs, vs, degree=None):
    """Evaluate coefficient vectors as fiber-valued functions on T^n x S^{n-1}.

    vectors: (dim, p) coefficients over (mode, harmonic, fiber); xs, vs:
    (N, n) base points and unit directions.  Returns (N, fdim, p).
    """
    vectors = np.asarray(vectors)
    if vectors.ndim == 1:
        vectors = vectors[:, None]
    deg = config.m if degree is None else degree
    modes = np.asarray(mode_list(config.n, config.K))  # (M, n)
    hb = harmonic_basis(config.n, deg)
    xs = np.atleast_2d(xs)
    vs = np.atleast_2d(vs)
    phases = np.exp(1j * xs @ modes.T)  # (N, M)
    Y = hb.eval_members(vs)  # (N, h)
    coefs = vectors.reshape(len(modes), len(hb), config.fdim, vectors.shape[1])
    out = np.einsum("NM,Nh,Mhfp->Nfp", phases, Y, coefs)
    return out
