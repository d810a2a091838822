"""Exact spectral reference built from one-sided Jacobi rotations.

This module is the ground truth the iterative kernels are tested against: a
thin SVD that rotates the matrix's own columns until they are orthogonal, so
its relative error scales with kappa, not kappa**2 as through the Gram
matrix; exact spectral powers; and condition numbers. It is written for
correctness at desk scale, calls no numpy.linalg decomposition and shares no
code with the kernel iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense import Matrix
from .errors import (
    InfiniteConditionError,
    NonFiniteError,
    OracleConvergenceError,
    PreconditionError,
    ShapeError,
    ZeroMatrixError,
)

# Rank cutoff relative to the largest singular value; shared by every
# consumer that needs a full-rank check.
RANK_TOLERANCE = 1e-10

# A column pair counts as orthogonal once the cosine of its angle is at most
# _ORTH_TOL; the first sweep that rotates no pair ends the iteration.
_ORTH_TOL = 1e-15
_SWEEP_CAP = 50


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


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One sweep of Brent-Luk rounds: (p, q) arrays of disjoint column pairs.

    Every pair of the n columns meets once; an odd n pairs with a dummy.
    """
    ring = list(range(n + n % 2))
    half = len(ring) // 2
    rounds = []
    for _ in range(len(ring) - 1):
        pairs = [(i, j) for i, j in zip(ring[:half], ring[::-1]) if max(i, j) < n]
        p, q = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        rounds.append((p, q))
        ring = ring[:1] + ring[-1:] + ring[1:-1]
    return rounds


def jacobi_svd(o: Matrix) -> SvdTriple:
    """Thin SVD by one-sided Jacobi rotations of the matrix's columns.

    Rotates Brent-Luk column pairs of the tall orientation, scaled by its
    largest |entry|, until every pair is orthogonal. Then sigma is the column
    norms, U the normalized columns and V the product of the rotations (for
    a wide input, the roles of U and V swap). Singular values at or below
    RANK_TOLERANCE * sigma_max are truncated. Raises NonFiniteError on NaN or
    Inf entries, ZeroMatrixError when nothing survives the cutoff and
    OracleConvergenceError past _SWEEP_CAP sweeps.
    """
    a = np.asarray(o, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {a.shape}")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if not math.isfinite(scale):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    if scale == 0.0:
        raise ZeroMatrixError("matrix is zero: no singular values above the cutoff")
    tall = a.shape[0] >= a.shape[1]
    t = a if tall else a.T
    m, n = t.shape
    # Row i holds column i of the scaled tall matrix, then column i of V.
    z = np.hstack((t.T / scale, np.eye(n)))
    rounds = _round_robin(n)
    for _ in range(_SWEEP_CAP):
        rotated = False
        for p, q in rounds:
            zp, zq = z[p], z[q]
            xp, xq = zp[:, :m], zq[:, :m]
            alpha = np.einsum("ij,ij->i", xp, xp)
            beta = np.einsum("ij,ij->i", xq, xq)
            gamma = np.einsum("ij,ij->i", xp, xq)
            turn = np.abs(gamma) > _ORTH_TOL * np.sqrt(alpha) * np.sqrt(beta)
            if not turn.any():
                continue
            rotated = True
            # tan = sign(zeta) / (|zeta| + hypot(1, zeta)), zeta = d / g, times
            # |g| over |g|: no square or quotient can overflow. A pair that is
            # already orthogonal gets tan = 0, an exact identity.
            d, g = beta - alpha, 2.0 * gamma
            tan = np.divide(np.copysign(1.0, d) * g, np.abs(d) + np.hypot(d, g),
                            out=np.zeros_like(g), where=turn)
            c = 1.0 / np.hypot(1.0, tan)[:, None]
            s = c * tan[:, None]
            z[p], z[q] = c * zp - s * zq, s * zp + c * zq
        if not rotated:
            break
    else:
        raise OracleConvergenceError(
            f"columns not orthogonal to {_ORTH_TOL:.0e} after {_SWEEP_CAP} sweeps"
        )
    sigma = np.sqrt(np.einsum("ij,ij->i", z[:, :m], z[:, :m]))
    order = np.argsort(-sigma, kind="stable")
    keep = order[sigma[order] > RANK_TOLERANCE * sigma[order[0]]]
    sigma = sigma[keep]
    u, v = (z[keep, :m] / sigma[:, None]).T, z[keep, m:].T
    if not tall:
        u, v = v, u
    return SvdTriple(u=u, sigma=sigma * scale, v=v)


def spectral_power_exact(o: Matrix, p: float) -> Matrix:
    """Exact spectral-power transform: U diag(sigma^p) V^T for p in [0, 1].

    Keeps the singular vectors and raises the singular values to the power
    p. For p = 0 the input must be full rank at the cutoff, since the zero
    power of a truncated direction is undefined.
    """
    if not 0.0 <= float(p) <= 1.0:
        raise PreconditionError(f"power must lie in [0, 1], got {p}")
    triple = jacobi_svd(o)
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
    triple = jacobi_svd(o)
    if triple.rank < min(o.shape):
        raise InfiniteConditionError(
            f"rank {triple.rank} < min(shape) {min(o.shape)}: condition number is infinite"
        )
    return float(triple.sigma[0] / triple.sigma[-1])
