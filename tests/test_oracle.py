"""Exact spectral oracle: one-sided Jacobi SVD, spectral powers, condition numbers.

The oracle is the reference everything else is judged against, so its own
tests use only hand-derived values, numpy's independent SVD, and algebraic
identities.
"""

import warnings

import numpy as np
import pytest

from specopt import oracle
from specopt.errors import (
    InfiniteConditionError,
    NonFiniteError,
    OracleConvergenceError,
    PreconditionError,
    ShapeError,
    ZeroMatrixError,
)
from specopt.oracle import RANK_TOLERANCE, cond_number, jacobi_svd, spectral_power_exact
from specopt.synth import random_orthogonal, spectrum_matrix

FIXTURE = np.diag([9.0, 4.0, 1.0, 0.01, 0.0001])


def orth_defect(q):
    return float(np.linalg.norm(q.T @ q - np.eye(q.shape[1])))


def numpy_power(a, p):
    """U diag(sigma^p) V^T from numpy's SVD, truncated at the oracle's cutoff."""
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    keep = sigma > RANK_TOLERANCE * sigma[0]
    return (u[:, keep] * sigma[keep] ** p) @ vt[keep]


def rel_err(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


# --- jacobi_svd -----------------------------------------------------------


def test_svd_diagonal():
    tri = jacobi_svd(np.diag([3.0, 2.0]))
    assert np.allclose(tri.sigma, [3.0, 2.0], atol=1e-12)


def test_svd_rank_one_outer_product():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(5)
    u *= 2.0 / np.linalg.norm(u)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    tri = jacobi_svd(np.outer(u, v))
    assert tri.rank == 1
    assert abs(tri.sigma[0] - 2.0) <= 1e-12


def test_svd_invariants_random():
    rng = np.random.default_rng(3)
    for shape in ((7, 4), (4, 7), (6, 6)):
        a = rng.standard_normal(shape)
        tri = jacobi_svd(a)
        assert np.all(np.diff(tri.sigma) <= 0.0)
        assert np.all(tri.sigma > 0.0)
        assert orth_defect(tri.u) <= 1e-10
        assert orth_defect(tri.v) <= 1e-10
        assert np.linalg.norm(tri.reconstruct() - a) <= 1e-9 * np.linalg.norm(a)


def test_svd_invariants_hold_at_stiff_spectra():
    # condition numbers up to 1e4; the normalized columns must stay
    # orthonormal
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = spectrum_matrix(rng, 20, 12, 1e4)
        tri = jacobi_svd(a)
        assert orth_defect(tri.u) <= 1e-10
        assert orth_defect(tri.v) <= 1e-10
        assert np.linalg.norm(tri.reconstruct() - a) <= 1e-9 * np.linalg.norm(a)


def test_svd_invariants_hold_at_near_tied_small_singular_values():
    rng = np.random.default_rng(5)
    sig = np.concatenate([np.logspace(0, -3.5, 10), [1e-4 * (1 + 1e-9), 1e-4]])
    u = random_orthogonal(rng, 12)
    v = random_orthogonal(rng, 12)
    tri = jacobi_svd((u * sig) @ v.T)
    assert np.all(np.diff(tri.sigma) <= 0.0)
    assert orth_defect(tri.u) <= 1e-10
    assert orth_defect(tri.v) <= 1e-10


def test_svd_matches_numpy_singular_values():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((9, 5))
    tri = jacobi_svd(a)
    assert np.allclose(tri.sigma, np.linalg.svd(a, compute_uv=False), atol=1e-10)


def test_svd_truncates_below_rank_tolerance():
    a = np.diag([1.0, 1e-14])
    tri = jacobi_svd(a)
    assert tri.rank == 1
    assert tri.u.shape == (2, 1)
    assert tri.v.shape == (2, 1)


def test_svd_zero_matrix_rejected():
    with pytest.raises(ZeroMatrixError):
        jacobi_svd(np.zeros((3, 3)))


def test_svd_input_validation():
    with pytest.raises(ShapeError):
        jacobi_svd(np.ones(3))
    with pytest.raises(NonFiniteError):
        jacobi_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(NonFiniteError):
        jacobi_svd(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_svd_raises_when_the_sweep_cap_is_hit(monkeypatch):
    monkeypatch.setattr(oracle, "_SWEEP_CAP", 1)
    with pytest.raises(OracleConvergenceError, match="after 1 sweeps"):
        jacobi_svd(np.random.default_rng(0).standard_normal((6, 4)))


def test_powers_match_numpy_at_kappa_1e8():
    # Through the Gram matrix (kappa**2 = 1e16) these were 2.6e-5, 1.3e-3
    # and 0.24 off.
    a = spectrum_matrix(np.random.default_rng(1), 48, 32, 1e8)
    assert rel_err(spectral_power_exact(a, 0.5), numpy_power(a, 0.5)) <= 1e-9
    assert rel_err(spectral_power_exact(a, 0.25), numpy_power(a, 0.25)) <= 1e-9
    # Any backward-stable SVD fixes sigma_min only to about eps * sigma_max,
    # here eps * kappa = 2e-8 relative; numpy's own value is about 1e-9 off.
    sigma = np.linalg.svd(a, compute_uv=False)
    assert abs(cond_number(a) - sigma[0] / sigma[-1]) <= 1e-8 * sigma[0] / sigma[-1]


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160, 1e200])
def test_half_power_is_exact_far_from_unit_scale(scale):
    # The Gram matrix of these underflows or overflows.
    a = spectrum_matrix(np.random.default_rng(0), 12, 8, 10.0) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spectral_power_exact(a, 0.5)
    assert rel_err(got, numpy_power(a, 0.5)) <= 1e-12


def test_rank_deficient_product_keeps_its_rank():
    # Rank 16 with kappa about 1e4 on its range: 5e-11 off through the Gram
    # matrix.
    rng = np.random.default_rng(2)
    a = spectrum_matrix(rng, 64, 16, 1e4) @ rng.standard_normal((16, 48))
    assert jacobi_svd(a).rank == 16
    assert rel_err(spectral_power_exact(a, 0.5), numpy_power(a, 0.5)) <= 1e-12


# --- spectral_power_exact ------------------------------------------------


def test_power_fixture_half():
    got = np.sort(jacobi_svd(spectral_power_exact(FIXTURE, 0.5)).sigma)[::-1]
    assert np.max(np.abs(got - [3.0, 2.0, 1.0, 0.1, 0.01])) <= 1e-12


def test_power_fixture_quarter():
    got = np.sort(jacobi_svd(spectral_power_exact(FIXTURE, 0.25)).sigma)[::-1]
    want = np.sqrt([3.0, 2.0, 1.0, 0.1, 0.01])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_power_fixture_zero_flattens_to_ones():
    got = jacobi_svd(spectral_power_exact(FIXTURE, 0.0)).sigma
    assert np.max(np.abs(got - 1.0)) <= 1e-12


def test_power_identity_exponent_reproduces_input():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 4))
    assert np.linalg.norm(spectral_power_exact(a, 1.0) - a) <= 1e-10 * np.linalg.norm(a)


def test_power_half_on_diagonal():
    assert np.allclose(spectral_power_exact(np.diag([9.0, 4.0]), 0.5),
                       np.diag([3.0, 2.0]), atol=1e-12)


def test_power_domain_checks():
    a = np.diag([2.0, 1.0])
    with pytest.raises(PreconditionError):
        spectral_power_exact(a, 1.5)
    with pytest.raises(PreconditionError):
        spectral_power_exact(a, -0.25)
    with pytest.raises(PreconditionError):
        spectral_power_exact(np.diag([1.0, 0.0]), 0.0)  # rank deficient at p=0


# --- cond_number ----------------------------------------------------------


def test_cond_fixture_chain():
    assert abs(cond_number(FIXTURE) - 90000.0) <= 1e-9 * 90000.0
    half = spectral_power_exact(FIXTURE, 0.5)
    assert abs(cond_number(half) - 300.0) <= 1e-9 * 300.0
    zero = spectral_power_exact(FIXTURE, 0.0)
    assert abs(cond_number(zero) - 1.0) <= 1e-9


def test_cond_orthogonal_is_one():
    q = random_orthogonal(np.random.default_rng(8), 5)
    assert abs(cond_number(q) - 1.0) <= 1e-12


def test_cond_rank_deficient_rejected():
    with pytest.raises(InfiniteConditionError):
        cond_number(np.diag([1.0, 0.0]))


# --- spectral laws --------------------------------------------------------


def test_condition_power_law():
    rng = np.random.default_rng(9)
    for _ in range(20):
        rows = int(rng.integers(5, 30))
        cols = int(rng.integers(5, 30))
        kappa = float(10.0 ** rng.uniform(0.0, 4.0))
        a = spectrum_matrix(rng, rows, cols, kappa)
        base = cond_number(a)
        for p in (1.0, 0.5, 0.25, 0.0):
            got = cond_number(spectral_power_exact(a, p))
            assert abs(got - base ** p) <= 1e-9 * base ** p


def test_monotone_flattening_chain():
    rng = np.random.default_rng(10)
    for _ in range(10):
        a = spectrum_matrix(rng, 12, 8, float(10.0 ** rng.uniform(0.5, 3.0)))
        chain = [cond_number(spectral_power_exact(a, p)) for p in (1.0, 0.5, 0.25, 0.0)]
        assert chain[0] >= chain[1] >= chain[2] >= chain[3]
        assert abs(chain[3] - 1.0) <= 1e-9


def test_exponent_composition():
    rng = np.random.default_rng(11)
    a = spectrum_matrix(rng, 10, 7, 50.0)
    twice = spectral_power_exact(spectral_power_exact(a, 0.5), 0.5)
    direct = spectral_power_exact(a, 0.25)
    assert np.linalg.norm(twice - direct) <= 1e-9 * np.linalg.norm(direct)


def test_zero_power_idempotent():
    rng = np.random.default_rng(12)
    a = spectrum_matrix(rng, 8, 8, 30.0)
    once = spectral_power_exact(a, 0.0)
    twice = spectral_power_exact(once, 0.0)
    assert np.linalg.norm(twice - once) <= 1e-9 * np.linalg.norm(once)
