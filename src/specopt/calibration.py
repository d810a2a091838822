"""Frozen numerical tolerances of the toolkit's contracts.

The kernel constants were calibrated by running the iterative kernels at
their default budgets on random inputs (shapes up to 64x48, condition number
<= 100, five seeds of 100 draws each) and comparing against the Jacobi-SVD
oracle, then frozen with headroom. The block at the end holds the remaining
contracts' tolerances: the oracle's own invariants, the coupled-iteration
identities, the optimizer reductions and the gradient checks. The property
checks in ``verify`` (run by ``specopt verify`` and the acceptance tests)
read every one of them. They are contracts, not knobs: loosening one to make
a failing build pass defeats the point of the dual-route checks.
"""

# Relative Frobenius error of the coupled-iteration root path vs the oracle
# at the default 15 iterations per pass. Random draws stay below 7e-6; a
# dense spectrum with one tiny singular value (the worst case at kappa=100,
# where the normalized starting point is smallest) reaches 2.9e-4 for the
# half power and 4.6e-4 for the composed quarter.
REL_TOL_HALF = 1e-3
REL_TOL_QUARTER = 1e-3

# Cubic polar factor vs oracle u @ v.T at the default iteration budget.
# The coupled iteration converges to its 1e-12 residual exit well inside
# the budget; measured worst over the calibration draws is 1.6e-13.
REL_TOL_POLAR_CUBIC = 1e-6

# Quintic polar factor vs oracle u @ v.T. The quintic never converges to
# the polar factor (its singular values cycle in QUINTIC_SV_BAND), so this
# tolerance reflects the band width, not iteration error. Measured worst
# 0.32; the analytic cap from the band extremes is about 0.34.
REL_TOL_ZERO_QUINTIC = 0.45

# Singular values of the 5-step quintic polar output on the calibration
# distribution. Measured extremes [0.6818, 1.1983] across seeds; the scalar
# map's limit cycle spans [0.6816, 1.2021]. The frozen band contains both
# with margin on each side.
QUINTIC_SV_BAND = (0.65, 1.21)

# frozen tolerances
ORACLE_FIXTURE_TOL = 1e-12
ORACLE_ORTHONORMALITY_TOL = 1e-10   # Frobenius defect of each factor
ORACLE_RECONSTRUCTION_TOL = 1e-9    # relative Frobenius
CONDITION_LAW_TOL = 1e-9            # relative error of kappa -> kappa**p
COUPLED_IDENTITY_TOL = 1e-6         # relative Frobenius
REDUCTION_DRIFT_TOL = 1e-12         # max abs drift over 500 steps
GRADIENT_CHECK_TOL = 1e-4           # relative, noise-floored
