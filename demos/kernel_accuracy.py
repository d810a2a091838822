#!/usr/bin/env python3
"""Multiplication-only kernels versus the exact oracle.

The optimizers never compute an SVD; they run short Newton-Schulz style
iterations instead. This demo measures, across a ladder of condition
numbers up to the stiffness training updates reach (kappa 1e4 and 1e6),
how close each iterative kernel gets to the exact answer at its default
budget:

  * cubic polar        -> the p = 0 direction, high precision, from one
                          inverse square-root pass on the Gram matrix
  * quintic polar      -> the p = 0 direction, five fixed steps (the
                          training kernel; lands in a band, not on a point)
  * half/quarter power -> one inverse 4th- or 8th-root pass on the Gram
                          matrix, opened by scaled Newton steps

Run: python3 demos/kernel_accuracy.py
"""

import numpy as np

from specopt.kernels import SpectralExponent, spectral_transform
from specopt.oracle import jacobi_svd, spectral_power_exact
from specopt.synth import spectrum_matrix


def rel(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def main():
    rng = np.random.default_rng(1)
    print(f"{'condition':>10}  {'half-power':>11}  {'quarter-power':>13}  "
          f"{'cubic polar':>11}  {'quintic band':>14}")
    for cond in (2.0, 10.0, 50.0, 100.0, 1e4, 1e6):
        m = spectrum_matrix(rng, 24, 16, cond)
        tr = jacobi_svd(m)
        polar_ref = tr.u @ tr.v.T

        half, _ = spectral_transform(m, SpectralExponent.HALF)
        quarter, _ = spectral_transform(m, SpectralExponent.QUARTER)
        cubic, _ = spectral_transform(m, SpectralExponent.ZERO, zero_method="cubic")
        quintic, _ = spectral_transform(m, SpectralExponent.ZERO)
        q_sig = jacobi_svd(quintic).sigma

        print(f"{cond:>10.0f}  {rel(half, spectral_power_exact(m, 0.5)):>11.2e}  "
              f"{rel(quarter, spectral_power_exact(m, 0.25)):>13.2e}  "
              f"{rel(cubic, polar_ref):>11.2e}  "
              f"[{q_sig[-1]:.3g}, {q_sig[0]:.3g}]")

    print("\nthe quintic column shows output singular values, not error: five"
          " fixed steps push\nevery direction into a band around 1 rather than"
          " converging, which is all a\ndescent direction needs and costs a"
          " fraction of full convergence. From kappa 1e4\nthe smallest"
          " directions stay far below the band: five steps cannot lift them.")


if __name__ == "__main__":
    main()
