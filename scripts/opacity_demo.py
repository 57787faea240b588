#!/usr/bin/env python3
"""Holonomy probe on three constant connections over the 3-torus.

A diagonal connection preserves the coordinate lines (reducible), two
non-commuting Pauli directions generate the full algebra (no invariant
subbundle detected), and the trivial connection is transparent.
"""

import numpy as np

from cktlab import holonomy as ho
from cktlab.torus import FourierConnection

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.zeros((2, 2))

cases = {
    "diagonal  A = diag(i, 2i) dx1": FourierConnection.constant(3, [np.diag([1j, 2j]), Z2, Z2]),
    "noncommuting  i sx dx1 + i sy dx2": FourierConnection.constant(3, [1j * SX, 1j * SY, Z2]),
    "trivial": FourierConnection.constant(3, [Z2, Z2, Z2]),
}

for name, conn in cases.items():
    rep = ho.opacity_probe(conn, num_geodesics=20, length=6.5, steps=256, seed=1)
    print(f"{name}")
    print(f"  commutant dimension {rep.commutant_dim} over {rep.transports} transports")
    for i, (rank, defect, _) in enumerate(rep.projectors):
        print(f"  projector {i}: rank {rank}, invariance defect {defect:.2e}")
    print(f"  -> {rep.verdict}")
    print()
