"""The numpy-only half of the torus model: truncation, connections, sections.

`TorusConfig` fixes the truncation (torus dimension n, Fourier box
|k|_inf <= K, harmonic degree m, fiber rank r and bundle kind),
`mode_list` enumerates the box, `fourier_sum` evaluates a matrix field
sum_q c_q e^{i q.x} at a batch of points, `FourierConnection` holds a
unitary connection 1-form of known (n, r) by its Fourier coefficients,
checked once, when it is built, and evaluates it through `fourier_sum`,
and `eval_sections` evaluates coefficient vectors over
(mode, harmonic, fiber) as functions on T^n x S^{n-1}.

Nothing here assembles a matrix: the holonomy probe, the text formats
and the CLI's config handling read this module directly.  The sparse
raising/lowering assembly, the kernels and the ejection scan live in
`torusmodel`, which re-exports every name defined here but `fourier_sum`.
Like every module of ckt-lab, both run on numpy alone, so no subcommand
loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import ValidationError
from .linalg import check_entries
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
        # the largest space, degree m + 1, before mode_list enumerates its modes
        h = dims(self.n, self.m + 1)[1]
        check_entries(f"the degree-{self.m + 1} torus space of {2 * self.K + 1}^{self.n} "
                      f"modes x {h} harmonics x fiber {self.fdim}",
                      (2 * self.K + 1) ** self.n * h * self.fdim)

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


def _dimension(name, given, found):
    """A connection's torus dimension or fiber rank: the one value its
    coefficients show (the set found), else the given one, which must agree
    with them; the result is an int >= 1."""
    (value,) = found or {given}
    if given not in (None, value):
        raise ValidationError(f"given {name} {given!r} disagrees with the coefficients' {value}")
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ValidationError(f"a connection needs its {name} as an int >= 1, got {value!r}")
    return int(value)


class FourierConnection:
    """Fourier coefficients of a unitary connection 1-form on the torus.

    coeffs maps a mode q to the tuple of n matrices (value on each
    coordinate direction).  The torus dimension n and the fiber rank r are
    read off the coefficients, or given for an empty connection; a given
    value must agree with them, and both are ints >= 1.  Pointwise
    skew-Hermitian reality demands hat(Gamma)_q^dagger = -hat(Gamma)_{-q},
    checked on construction at 1e-12 max(1, max|hat(Gamma)_q|).  This is
    the one check of a connection; nothing downstream repeats it.
    """

    # every instance passed the reality check; the constant stays because
    # perfbench's test of its generated connections reads it
    unitary = True

    def __init__(self, coeffs=None, r=None, n=None):
        self.coeffs = {}
        if coeffs:
            for q, mats in coeffs.items():
                mats = tuple(np.asarray(M, dtype=complex) for M in mats)
                self.coeffs[tuple(int(c) for c in q)] = mats
        shapes = {M.shape for mats in self.coeffs.values() for M in mats}
        if len(shapes) > 1 or any(len(sh) != 2 or sh[0] != sh[1] for sh in shapes):
            raise ValidationError("all coefficient matrices must be square of one fiber rank")
        ns = {len(q) for q in self.coeffs}
        if len(ns) > 1:
            raise ValidationError("all modes must share the torus dimension")
        for q, mats in self.coeffs.items():
            if len(mats) != len(q):
                raise ValidationError(
                    f"mode {q} carries {len(mats)} direction matrices, the torus needs {len(q)}"
                )
        self.r = _dimension("fiber rank", r, {sh[0] for sh in shapes})
        self.n = _dimension("torus dimension", n, ns)
        for q, mats in self.coeffs.items():
            mq = tuple(-c for c in q)
            if mq not in self.coeffs:
                raise ValidationError(f"mode {q} present without its opposite {mq}")
            for M, Mo in zip(mats, self.coeffs[mq]):
                scale = max(1.0, np.abs(M).max())
                if np.abs(M.conj().T + Mo).max() > 1e-12 * scale:
                    raise ValidationError(
                        f"reality violated at mode {q}: conj-transpose must equal "
                        "minus the opposite-mode coefficient"
                    )

    @classmethod
    def zero(cls, r, n):
        return cls({}, r=r, n=n)

    @classmethod
    def cosine_mode(cls, n, q, j, M):
        """Connection M cos(q.x) dx_j, whose reality check requires a
        skew-Hermitian M."""
        M = np.asarray(M, dtype=complex)
        r = M.shape[0]
        q = tuple(int(c) for c in q)
        mats_q = [np.zeros((r, r), dtype=complex) for _ in range(n)]
        # M cos(q.x) = M/2 e^{i q.x} + M/2 e^{-i q.x}; at q = 0 the one
        # coefficient carries the full matrix
        mats_q[j] = M / 2 if any(q) else M
        return cls({q: tuple(mats_q), tuple(-c for c in q): tuple(M.copy() for M in mats_q)})

    @classmethod
    def constant(cls, n, mats):
        """x-independent connection with the given direction matrices."""
        return cls({(0,) * n: tuple(np.asarray(M, dtype=complex) for M in mats)})

    def scaled(self, s):
        return FourierConnection({q: tuple(s * M for M in mats)
                                  for q, mats in self.coeffs.items()}, r=self.r, n=self.n)

    def plus(self, other):
        out = dict(self.coeffs)
        for q, mats in other.coeffs.items():
            out[q] = tuple(a + b for a, b in zip(out[q], mats)) if q in out else mats
        return FourierConnection(out, r=self.r, n=self.n)

    def value_at(self, x, v) -> np.ndarray:
        """Gamma_x(v): the fiber matrix at base points x and directions v.

        x and v have shape (..., n) and broadcast against each other; the
        result is (..., r, r).  v is contracted with the coefficients
        first, then `fourier_sum` adds the modes up.
        """
        x, v = np.asarray(x, dtype=float), np.asarray(v)
        coeffs = np.reshape(list(self.coeffs.values()), (-1, self.n, self.r, self.r))
        A = np.einsum("...j,qjab->...qab", v, coeffs)
        return fourier_sum(np.reshape(list(self.coeffs), (-1, self.n)), A, x)


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
