"""Exact spectral reference built from cyclic Jacobi rotations.

This module is the ground truth the iterative kernels are tested against:
a symmetric eigensolver using plane rotations only, an SVD assembled through
the Gram matrix, exact spectral powers, and condition numbers. It is written
for correctness at desk scale (dimensions up to a few hundred), not speed,
and deliberately shares no code with the kernel iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import Matrix, gram
from .errors import (
    InfiniteConditionError,
    OracleConvergenceError,
    PreconditionError,
    ShapeError,
    ZeroMatrixError,
)

# Rank cutoff relative to the largest singular value; shared by every
# consumer that needs a full-rank check.
RANK_TOLERANCE = 1e-10

# Off-diagonal Frobenius mass targets, relative to the input norm. The
# contractual stop is 1e-12; sweeps continue to the tight target when the
# cap allows because the final sweep is nearly free (quadratic convergence)
# and the extra accuracy benefits the condition-number laws.
_STOP_REL = 1e-12
_TIGHT_REL = 1e-15
_SWEEP_CAP = 50

_SYMMETRY_RTOL = 1e-10
# Rotation cotangents beyond this take the small-angle tangent 1 / (2 theta).
_THETA_HUGE = 1e100


@dataclass
class SvdTriple:
    """Thin SVD: u (m x r), sigma (r, descending, positive), v (n x r)."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.sigma.shape[0])

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T


def _off_mass(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def jacobi_eigh(s: Matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Sweeps rotate every (p, q) pair in row-cyclic order until the
    off-diagonal Frobenius mass falls below 1e-12 times the input norm (the
    loop aims a little lower when it can). Returns (eigenvalues, vectors)
    with eigenvalues sorted descending, ties keeping their pre-sort order,
    and eigenvectors as the matching columns.

    Raises PreconditionError for non-square or asymmetric input and
    OracleConvergenceError if the sweep cap is hit before the target.
    """
    a = np.asarray(s, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"eigensolver needs a square matrix, got {a.shape}")
    n = a.shape[0]
    norm = float(np.linalg.norm(a))
    if float(np.linalg.norm(a - a.T)) > _SYMMETRY_RTOL * norm:
        raise PreconditionError("input is not symmetric within tolerance")
    a = 0.5 * (a + a.T)
    vecs = np.eye(n)
    if n == 1 or norm == 0.0:
        vals = np.diag(a).copy()
        order = np.argsort(-vals, kind="stable")
        return vals[order], vecs[:, order]

    stop_spec = _STOP_REL * norm
    stop_tight = _TIGHT_REL * norm
    off = _off_mass(a)
    sweeps = 0
    while off > stop_tight and sweeps < _SWEEP_CAP:
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                sign = 1.0 if theta >= 0.0 else -1.0
                size = abs(theta)
                if size > _THETA_HUGE:
                    # sqrt(theta^2 + 1) already rounds to |theta| here, and
                    # theta^2 would overflow past about 1e154.
                    t = sign * 0.5 / size
                else:
                    t = sign / (size + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                sn = t * c
                # A <- J^T A J applied as column then row combinations.
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - sn * col_q
                a[:, q] = sn * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - sn * row_q
                a[q, :] = sn * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vec_p = vecs[:, p].copy()
                vec_q = vecs[:, q].copy()
                vecs[:, p] = c * vec_p - sn * vec_q
                vecs[:, q] = sn * vec_p + c * vec_q
        sweeps += 1
        off = _off_mass(a)

    if off > stop_spec:
        raise OracleConvergenceError(
            f"off-diagonal mass {off:.3e} above target {stop_spec:.3e} after {sweeps} sweeps"
        )
    vals = np.diag(a).copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def svd_via_gram(o: Matrix) -> SvdTriple:
    """Thin SVD obtained from the smaller-side Gram matrix.

    Eigenvalues of the Gram matrix give sigma^2; the missing factor is
    recovered by one projection. Singular values at or below
    RANK_TOLERANCE * sigma_max are truncated. Raises ZeroMatrixError when
    nothing survives the cutoff.
    """
    a = np.asarray(o, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {a.shape}")
    m, n = a.shape
    tall = m >= n
    _, vecs = jacobi_eigh(gram(a))
    # sigma_i = sqrt(lambda_i), but evaluated as ||O v_i||: the same number
    # up to rounding, with error ~eps*kappa instead of the squared-condition
    # error that forming the Gram matrix puts into the small eigenvalues.
    # This keeps the recovered factor orthonormal at stiff spectra.
    proj = a @ vecs if tall else a.T @ vecs
    sigma = np.sqrt(np.sum(proj * proj, axis=0))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    vecs = vecs[:, order]
    proj = proj[:, order]
    if sigma.size == 0 or sigma[0] == 0.0:
        raise ZeroMatrixError("matrix is zero: no singular values above the cutoff")
    keep = sigma > RANK_TOLERANCE * sigma[0]
    sigma = sigma[keep]
    w = vecs[:, keep]
    proj = proj[:, keep] / sigma
    # The projected factor picks up cross-talk of order eps*kappa^2 between
    # near-tied small singular directions. One Newton orthogonalization step
    # squares that defect down to the machine floor and perturbs the
    # reconstruction by no more than the defect it removes.
    wg = proj.T @ proj
    proj = proj @ ((3.0 * np.eye(wg.shape[0]) - wg) * 0.5)
    if tall:
        v = w
        u = proj
    else:
        u = w
        v = proj
    return SvdTriple(u=u, sigma=sigma, v=v)


def spectral_power_exact(o: Matrix, p: float) -> Matrix:
    """Exact spectral-power transform: U diag(sigma^p) V^T for p in [0, 1].

    Keeps the singular vectors and raises the singular values to the power
    p. For p = 0 the input must be full rank at the cutoff, since the zero
    power of a truncated direction is undefined.
    """
    if not 0.0 <= float(p) <= 1.0:
        raise PreconditionError(f"power must lie in [0, 1], got {p}")
    triple = svd_via_gram(o)
    if float(p) == 0.0 and triple.rank < min(o.shape):
        raise PreconditionError(
            f"zero power needs full rank: rank {triple.rank} < min(shape) {min(o.shape)}"
        )
    return (triple.u * triple.sigma ** float(p)) @ triple.v.T


def cond_number(o: Matrix) -> float:
    """sigma_max / sigma_min of a full-rank matrix.

    Raises InfiniteConditionError when the matrix is rank deficient at the
    cutoff.
    """
    triple = svd_via_gram(o)
    if triple.rank < min(o.shape):
        raise InfiniteConditionError(
            f"rank {triple.rank} < min(shape) {min(o.shape)}: condition number is infinite"
        )
    return float(triple.sigma[0] / triple.sigma[-1])
