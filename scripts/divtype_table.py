#!/usr/bin/env python3
"""Print the uniform-divergence-type verdict table for the contraction symbol.

Surfaces (n=2) come out elliptic for degree >= 2; higher dimensions are
uniform on both the trace-free and the full symmetric-tensor models.
"""

from cktlab import symbolcheck as sc

print(f"{'n':>3} {'m':>3} {'model':>10} {'span':>9} {'verdict':>12}  note")
for n in (2, 3, 4):
    for m in range(1, 5):
        for model in ("tracefree", "full"):
            rep = sc.check_dstar_uniform(n, m, model, N=256, seed=0)
            print(f"{n:>3} {m:>3} {model:>10} "
                  f"{rep.span_dim:>4}/{rep.fiber_dim:<4} {rep.verdict:>12}  {rep.note}")

print()
print("exterior forms:")
for n in (3, 4):
    for k in range(n + 1):
        rep = sc.uniform_span(sc.forms_family(n, k), N=256, seed=0)
        print(f"  n={n} k={k}: span {rep.span_dim}/{rep.fiber_dim} -> {rep.verdict}")

print()
rep = sc.uniform_span(sc.counterexample_family(2), N=128, seed=0)
print(f"hand-built counterexample (r=2): span {rep.span_dim}/{rep.fiber_dim} "
      f"-> {rep.verdict}")
