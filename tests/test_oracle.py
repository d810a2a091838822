"""Exact spectral oracle: Jacobi eigensolver, Gram-route SVD, spectral powers.

The oracle is the reference everything else is judged against, so its own
tests use only hand-derived values, numpy's independent SVD, and algebraic
identities.
"""

import warnings

import numpy as np
import pytest

from specopt.errors import (
    InfiniteConditionError,
    PreconditionError,
    ShapeError,
    ZeroMatrixError,
)
from specopt.oracle import cond_number, jacobi_eigh, spectral_power_exact, svd_via_gram
from specopt.synth import random_orthogonal, spectrum_matrix

FIXTURE = np.diag([9.0, 4.0, 1.0, 0.01, 0.0001])


def orth_defect(q):
    return float(np.linalg.norm(q.T @ q - np.eye(q.shape[1])))


# --- jacobi_eigh ----------------------------------------------------------


def test_jacobi_diagonal_input():
    vals, vecs = jacobi_eigh(np.diag([5.0, 2.0]))
    assert np.array_equal(vals, [5.0, 2.0])
    assert np.array_equal(vecs, np.eye(2))


def test_jacobi_two_by_two_hand_values():
    # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 = 1 -> l = 3, 1
    vals, vecs = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(vals, [3.0, 1.0], atol=1e-12)
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(a @ vecs, vecs * vals, atol=1e-12)


def test_jacobi_similarity_invariance():
    rng = np.random.default_rng(0)
    s = rng.standard_normal((6, 6))
    s = 0.5 * (s + s.T)
    q = random_orthogonal(rng, 6)
    vals_a, _ = jacobi_eigh(s)
    vals_b, _ = jacobi_eigh(0.5 * ((q @ s @ q.T) + (q @ s @ q.T).T))
    assert np.max(np.abs(vals_a - vals_b)) <= 1e-10 * max(1.0, np.max(np.abs(vals_a)))


def test_jacobi_eigenpairs_reconstruct():
    rng = np.random.default_rng(1)
    s = rng.standard_normal((8, 8))
    s = 0.5 * (s + s.T)
    vals, vecs = jacobi_eigh(s)
    assert np.all(np.diff(vals) <= 0.0)
    assert orth_defect(vecs) <= 1e-12
    assert np.linalg.norm((vecs * vals) @ vecs.T - s) <= 1e-12 * np.linalg.norm(s)


def test_jacobi_takes_a_tiny_pivot_without_overflow():
    # theta = (a_qq - a_pp) / (2 a_pq) reaches 5e159 on the (0, 1) pivot;
    # squaring it would overflow.
    a = np.array([[1.0, 1e-160, 0.5], [1e-160, 2.0, 0.0], [0.5, 0.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, vecs = jacobi_eigh(a)
    assert np.allclose(vals, np.linalg.eigvalsh(a)[::-1], rtol=0.0, atol=1e-14)
    assert orth_defect(vecs) <= 1e-14
    assert np.linalg.norm((vecs * vals) @ vecs.T - a) <= 1e-14


def test_jacobi_input_validation():
    with pytest.raises(ShapeError):
        jacobi_eigh(np.zeros((2, 3)))
    with pytest.raises(PreconditionError):
        jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


# --- svd_via_gram ---------------------------------------------------------


def test_svd_diagonal():
    tri = svd_via_gram(np.diag([3.0, 2.0]))
    assert np.allclose(tri.sigma, [3.0, 2.0], atol=1e-12)


def test_svd_rank_one_outer_product():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(5)
    u *= 2.0 / np.linalg.norm(u)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    tri = svd_via_gram(np.outer(u, v))
    assert tri.rank == 1
    assert abs(tri.sigma[0] - 2.0) <= 1e-12


def test_svd_invariants_random():
    rng = np.random.default_rng(3)
    for shape in ((7, 4), (4, 7), (6, 6)):
        a = rng.standard_normal(shape)
        tri = svd_via_gram(a)
        assert np.all(np.diff(tri.sigma) <= 0.0)
        assert np.all(tri.sigma > 0.0)
        assert orth_defect(tri.u) <= 1e-10
        assert orth_defect(tri.v) <= 1e-10
        assert np.linalg.norm(tri.reconstruct() - a) <= 1e-9 * np.linalg.norm(a)


def test_svd_invariants_hold_at_stiff_spectra():
    # condition numbers up to the tested cap of 1e4, where the Gram route
    # squares the conditioning; the recovered factor must stay orthonormal
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = spectrum_matrix(rng, 20, 12, 1e4)
        tri = svd_via_gram(a)
        assert orth_defect(tri.u) <= 1e-10
        assert orth_defect(tri.v) <= 1e-10
        assert np.linalg.norm(tri.reconstruct() - a) <= 1e-9 * np.linalg.norm(a)


def test_svd_invariants_hold_at_near_tied_small_singular_values():
    rng = np.random.default_rng(5)
    sig = np.concatenate([np.logspace(0, -3.5, 10), [1e-4 * (1 + 1e-9), 1e-4]])
    u = random_orthogonal(rng, 12)
    v = random_orthogonal(rng, 12)
    tri = svd_via_gram((u * sig) @ v.T)
    assert np.all(np.diff(tri.sigma) <= 0.0)
    assert orth_defect(tri.u) <= 1e-10
    assert orth_defect(tri.v) <= 1e-10


def test_svd_matches_numpy_singular_values():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((9, 5))
    tri = svd_via_gram(a)
    assert np.allclose(tri.sigma, np.linalg.svd(a, compute_uv=False), atol=1e-10)


def test_svd_truncates_below_rank_tolerance():
    a = np.diag([1.0, 1e-14])
    tri = svd_via_gram(a)
    assert tri.rank == 1
    assert tri.u.shape == (2, 1)
    assert tri.v.shape == (2, 1)


def test_svd_zero_matrix_rejected():
    with pytest.raises(ZeroMatrixError):
        svd_via_gram(np.zeros((3, 3)))


# --- spectral_power_exact ------------------------------------------------


def test_power_fixture_half():
    got = np.sort(svd_via_gram(spectral_power_exact(FIXTURE, 0.5)).sigma)[::-1]
    assert np.max(np.abs(got - [3.0, 2.0, 1.0, 0.1, 0.01])) <= 1e-12


def test_power_fixture_quarter():
    got = np.sort(svd_via_gram(spectral_power_exact(FIXTURE, 0.25)).sigma)[::-1]
    want = np.sqrt([3.0, 2.0, 1.0, 0.1, 0.01])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_power_fixture_zero_flattens_to_ones():
    got = svd_via_gram(spectral_power_exact(FIXTURE, 0.0)).sigma
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
