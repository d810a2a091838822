#!/usr/bin/env python3
"""What the spectral powers actually do to a matrix.

Takes one badly conditioned diagonal matrix and one random dense matrix,
applies the exact power-(p) transform for p in {1, 1/2, 1/4, 0}, and prints
the resulting singular values and condition numbers. The point to notice:
the condition number obeys kappa -> kappa**p, so p = 0 always lands on a
perfectly conditioned (orthogonal-factor) update.

Run: python3 demos/spectrum_flattening.py
"""

import numpy as np

from specopt.oracle import cond_number, spectral_power_exact, svd_via_gram
from specopt.synth import spectrum_matrix

POWERS = (1.0, 0.5, 0.25, 0.0)


def describe(label, m):
    print(f"\n{label}  (shape {m.shape[0]}x{m.shape[1]})")
    print(f"{'p':>6}  {'condition':>12}  singular values")
    for p in POWERS:
        out = spectral_power_exact(m, p)
        sig = svd_via_gram(out).sigma
        kappa = cond_number(out)
        shown = ", ".join(f"{s:.4g}" for s in sig[:6])
        if sig.size > 6:
            shown += ", ..."
        print(f"{p:>6}  {kappa:>12.4g}  [{shown}]")


def main():
    stiff = np.diag([9.0, 4.0, 1.0, 0.01, 0.0001])
    describe("stiff diagonal, condition 9e4", stiff)

    rng = np.random.default_rng(0)
    dense = spectrum_matrix(rng, 12, 8, cond=500.0)
    describe("random dense, condition 500", dense)

    print("\ncondition follows kappa -> kappa**p; p=0 flattens every direction"
          " to unit gain.")


if __name__ == "__main__":
    main()
