"""ckt-lab: finite-dimensional spectral-geometry toolkit.

Harmonic/symmetric tensor calculus, connection-form raising and lowering
operators, uniform-divergence-type symbol checks, commutator
factorization, a flat-torus eigenvalue-ejection experiment, matrix-level
resolvent perturbation identities, and holonomy/opacity probes.
"""

__version__ = "0.1.0"
