"""Multiplication-only kernels checked against the exact oracle."""

import json
import threading

import numpy as np
import pytest

from specopt import dense, kernels
from specopt.calibration import (
    QUINTIC_SV_BAND,
    REL_TOL_HALF,
    REL_TOL_POLAR_CUBIC,
    REL_TOL_QUARTER,
    REL_TOL_ZERO_QUINTIC,
)
from specopt.cli import main
from specopt.dense import write_matrix
from specopt.errors import (
    DegenerateInputError,
    KernelDivergenceError,
    NonFiniteError,
    PreconditionError,
    ShapeError,
)
from specopt.kernels import (
    DEFAULT_CUBIC_ITERS,
    DEFAULT_POLAR_ITERS,
    DEFAULT_ROOT_STEPS,
    QUINTIC_COEFFICIENTS,
    SpectralExponent,
    coupled_root,
    polar_cubic,
    polar_quintic,
    spectral_transform,
)
from specopt.oracle import jacobi_svd, spectral_power_exact
from specopt.synth import random_orthogonal, random_spd, spectrum_matrix

FIXTURE5 = np.diag([9.0, 4.0, 1.0, 0.01, 0.0001])


def rel_err(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def oracle_power(a, p):
    tri = jacobi_svd(a)
    return (tri.u * tri.sigma ** p) @ tri.v.T


def test_quintic_coefficients_pinned():
    assert QUINTIC_COEFFICIENTS == (3.4445, -4.7750, 2.0315)


def test_exponent_tokens_and_maps():
    assert SpectralExponent.ONE.power == 1.0
    assert SpectralExponent.HALF.power == 0.5
    assert SpectralExponent.QUARTER.power == 0.25
    assert SpectralExponent.ZERO.power == 0.0
    assert SpectralExponent.ONE.suffix == ""
    assert SpectralExponent.HALF.suffix == "S"
    assert SpectralExponent.QUARTER.suffix == "Q"
    assert SpectralExponent.ZERO.suffix == "Z"
    for token, want in (("1", "one"), ("0.5", "half"), ("1/2", "half"),
                        ("0.25", "quarter"), ("q", "quarter"), ("0", "zero"),
                        ("Zero", "zero"), ("S", "half")):
        assert SpectralExponent.from_token(token).value == want
    with pytest.raises(PreconditionError):
        SpectralExponent.from_token("2")


# --- quintic polar --------------------------------------------------------


def test_quintic_orthogonal_input_keeps_direction():
    # all singular values equal, so the output is a scalar multiple of the
    # input rotation with the scalar inside the recorded band
    theta = 0.7
    r = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    out, diag = polar_quintic(r)
    s = 0.5 * float(np.trace(out @ r.T))
    assert QUINTIC_SV_BAND[0] <= s <= QUINTIC_SV_BAND[1]
    assert np.linalg.norm(out - s * r) <= 1e-10
    assert diag.iterations_run == 5
    assert len(diag.residual_per_iter) == 5


def test_quintic_positive_scale_removed_by_normalization():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 4))
    base, _ = polar_quintic(m)
    scaled, _ = polar_quintic(137.0 * m)
    assert np.linalg.norm(base - scaled) <= 1e-12


def test_quintic_diagonal_fixture_band():
    # recorded once for this specific spectrum: the smallest direction has
    # not finished climbing after five steps
    out, _ = polar_quintic(np.diag([9.0, 4.0, 1.0, 0.01]))
    sv = jacobi_svd(out).sigma
    assert sv[0] <= 1.11
    assert sv[-1] >= 0.46


def test_quintic_band_on_normalized_inputs():
    rng = np.random.default_rng(1)
    for _ in range(15):
        a = spectrum_matrix(rng, int(rng.integers(4, 30)), int(rng.integers(4, 25)),
                            float(10.0 ** rng.uniform(0.0, 2.0)))
        sv = jacobi_svd(polar_quintic(a)[0]).sigma
        assert sv[0] <= QUINTIC_SV_BAND[1]
        assert sv[-1] >= QUINTIC_SV_BAND[0]


def test_quintic_iteration_override_and_wide_input():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 7))
    out, diag = polar_quintic(m, iters=9)
    assert diag.iterations_run == 9
    out_t, _ = polar_quintic(m.T, iters=9)
    assert np.linalg.norm(out - out_t.T) <= 1e-12
    with pytest.raises(DegenerateInputError):
        polar_quintic(np.zeros((3, 3)))
    with pytest.raises(PreconditionError):
        polar_quintic(m, iters=0)


# --- cubic polar ----------------------------------------------------------


def test_cubic_identity():
    out, diag = polar_cubic(np.eye(4))
    assert np.linalg.norm(out - np.eye(4)) <= 1e-12
    assert diag.scale_alpha > 0.0


def test_cubic_positive_diagonal_to_identity():
    out, _ = polar_cubic(np.diag([2.0, 1.0]))
    assert np.linalg.norm(out - np.eye(2)) <= 1e-8


def test_cubic_matches_oracle_polar():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = spectrum_matrix(rng, 6, 4, float(10.0 ** rng.uniform(0.0, 2.0)))
        tri = jacobi_svd(a)
        out, diag = polar_cubic(a)
        assert rel_err(out, tri.u @ tri.v.T) <= REL_TOL_POLAR_CUBIC
        assert len(diag.residual_per_iter) == diag.iterations_run


def test_cubic_wide_input_transpose_convention():
    rng = np.random.default_rng(4)
    a = spectrum_matrix(rng, 4, 6, 10.0)
    out, _ = polar_cubic(a)
    out_t, _ = polar_cubic(a.T)
    assert np.linalg.norm(out - out_t.T) <= 1e-10


def test_cubic_rejects_rank_deficiency_and_zero():
    with pytest.raises(KernelDivergenceError, match="residual stuck") as info:
        polar_cubic(np.ones((6, 4)))
    diag = info.value.diagnostics
    assert diag.iterations_run == 40
    assert len(diag.residual_per_iter) == 40
    assert diag.residual_per_iter[-1] == 1.7320508075688772
    assert diag.scale_alpha == 24.0
    with pytest.raises(DegenerateInputError):
        polar_cubic(np.zeros((4, 4)))


# --- coupled square and quarter roots ---------------------------------------


def test_coupled_sqrt_identity_converges():
    root, inv_root, diag = coupled_root(np.eye(5), 2)
    assert np.linalg.norm(root - np.eye(5)) <= 1e-6
    assert np.linalg.norm(inv_root - np.eye(5)) <= 1e-6
    assert diag.scale_alpha == np.linalg.norm(np.eye(5))


def test_coupled_sqrt_diagonal():
    root, inv_root, _ = coupled_root(np.diag([4.0, 1.0]), 2)
    assert np.allclose(root, np.diag([2.0, 1.0]), atol=1e-8)
    assert np.allclose(inv_root, np.diag([0.5, 1.0]), atol=1e-8)


def test_coupled_quarter_identity_and_diagonal():
    root, inv_root, diag = coupled_root(np.eye(3), 4)
    assert np.linalg.norm(root - np.eye(3)) <= 1e-6
    assert np.linalg.norm(inv_root - np.eye(3)) <= 1e-6
    assert diag.scale_alpha == np.linalg.norm(np.eye(3))
    root, inv_root, _ = coupled_root(np.diag([16.0, 1.0]), 4)
    assert np.allclose(root, np.diag([2.0, 1.0]), atol=1e-8)
    assert np.allclose(inv_root, np.diag([0.5, 1.0]), atol=1e-8)


@pytest.mark.parametrize("q,seed,cond", [(2, 5, 50.0), (4, 7, 20.0)])
def test_coupled_root_reconstruction(q, seed, cond):
    x = random_spd(np.random.default_rng(seed), 8, cond)
    root, inv_root, diag = coupled_root(x, q)
    assert np.linalg.norm(root @ inv_root - np.eye(8)) <= 1e-7
    assert np.linalg.norm(np.linalg.matrix_power(root, q) - x) <= 1e-7 * np.linalg.norm(x)
    assert diag.scale_alpha == np.linalg.norm(x)


def test_coupled_sqrt_residual_contraction():
    # residuals drop monotonically after the first step and at quadratic
    # order (constant C = 1 for this iteration) once below one half
    rng = np.random.default_rng(6)
    x = random_spd(rng, 10, 30.0)
    _, _, diag = coupled_root(x, 2)
    res = diag.residual_per_iter
    for a, b in zip(res[1:], res[2:]):
        assert b <= a + 1e-13
    for a, b in zip(res, res[1:]):
        if a < 0.5:
            assert b <= a * a + 1e-13


def test_coupled_sqrt_preconditions():
    with pytest.raises(PreconditionError):
        coupled_root(np.eye(3), 2, iters=0)
    with pytest.raises(NonFiniteError):
        coupled_root(np.array([[np.nan, 0.0], [0.0, 1.0]]), 2)


@pytest.mark.parametrize("q,what,label", [(2, "square root", "coupled sqrt"),
                                          (4, "quarter root", "coupled quarter")],
                         ids=["q2", "q4"])
def test_coupled_root_errors_name_the_root(q, what, label):
    with pytest.raises(ShapeError, match=f"^{what} needs a square matrix, got \\(2, 3\\)$"):
        coupled_root(np.zeros((2, 3)), q)
    with pytest.raises(PreconditionError,
                       match=f"^{label}: input is not symmetric within tolerance$"):
        coupled_root(np.array([[1.0, 0.5], [0.0, 1.0]]), q)
    with pytest.raises(KernelDivergenceError, match=f"^{label}: residual grew to "):
        coupled_root(np.diag([1.0, -1.0]), q)


@pytest.mark.parametrize("q", [3, 8])
def test_coupled_root_takes_only_degrees_two_and_four(q):
    with pytest.raises(PreconditionError, match="degree must be 2 or 4"):
        coupled_root(np.eye(3), q)


# --- assembled transform --------------------------------------------------


def test_transform_identity_exponent_copies():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((5, 3))
    out, diag = spectral_transform(a, SpectralExponent.ONE)
    assert np.array_equal(out, a)
    assert out is not a
    assert diag.iterations_run == 0


def test_transform_fixture_half_and_quarter():
    # condition number 9e4 sits far beyond the default budget's comfort
    # zone, so spend extra iterations; the early exit stops the loop once
    # the residual bottoms out (52 and 84 steps respectively)
    out, _ = spectral_transform(FIXTURE5, SpectralExponent.HALF, iters=40)
    sv = np.sort(jacobi_svd(out).sigma)[::-1]
    assert np.max(np.abs(sv - [3.0, 2.0, 1.0, 0.1, 0.01])) <= 1e-9
    out, _ = spectral_transform(FIXTURE5, SpectralExponent.QUARTER, iters=40)
    sv = np.sort(jacobi_svd(out).sigma)[::-1]
    want = np.sqrt([3.0, 2.0, 1.0, 0.1, 0.01])
    assert np.max(np.abs(sv - want)) <= 1e-9


def test_transform_agrees_with_oracle():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = spectrum_matrix(rng, int(rng.integers(5, 40)), int(rng.integers(5, 30)),
                            float(10.0 ** rng.uniform(0.0, 2.0)))
        half, _ = spectral_transform(a, SpectralExponent.HALF)
        assert rel_err(half, oracle_power(a, 0.5)) <= REL_TOL_HALF
        quarter, _ = spectral_transform(a, SpectralExponent.QUARTER)
        assert rel_err(quarter, oracle_power(a, 0.25)) <= REL_TOL_QUARTER


def test_transform_identity_matrix_fixed_point():
    eye = np.eye(4)
    for exponent in (SpectralExponent.ONE, SpectralExponent.HALF, SpectralExponent.QUARTER):
        out, _ = spectral_transform(eye, exponent)
        assert np.linalg.norm(out - eye) <= 1e-6
    out, _ = spectral_transform(eye, SpectralExponent.ZERO, zero_method="cubic")
    assert np.linalg.norm(out - eye) <= 1e-6


def test_transform_zero_methods():
    rng = np.random.default_rng(10)
    a = spectrum_matrix(rng, 6, 4, 20.0)
    tri = jacobi_svd(a)
    polar = tri.u @ tri.v.T
    cubic, _ = spectral_transform(a, SpectralExponent.ZERO, zero_method="cubic")
    assert rel_err(cubic, polar) <= REL_TOL_POLAR_CUBIC
    quintic, _ = spectral_transform(a, SpectralExponent.ZERO)
    sv = jacobi_svd(quintic).sigma
    assert sv[0] <= QUINTIC_SV_BAND[1]
    assert sv[-1] >= QUINTIC_SV_BAND[0]
    with pytest.raises(PreconditionError):
        spectral_transform(a, SpectralExponent.ZERO, zero_method="householder")


def test_transform_positive_scale_homogeneity():
    rng = np.random.default_rng(11)
    a = spectrum_matrix(rng, 8, 6, 10.0)
    c = 7.5
    for exponent, p in ((SpectralExponent.HALF, 0.5), (SpectralExponent.QUARTER, 0.25)):
        base, _ = spectral_transform(a, exponent)
        scaled, _ = spectral_transform(c * a, exponent)
        assert rel_err(scaled, c ** p * base) <= 1e-6
    base, _ = spectral_transform(a, SpectralExponent.ZERO, zero_method="cubic")
    scaled, _ = spectral_transform(c * a, SpectralExponent.ZERO, zero_method="cubic")
    assert rel_err(scaled, base) <= 1e-8


def test_transform_wide_input_matches_transposed_tall():
    rng = np.random.default_rng(12)
    a = spectrum_matrix(rng, 4, 9, 15.0)
    out, _ = spectral_transform(a, SpectralExponent.HALF)
    out_t, _ = spectral_transform(a.T, SpectralExponent.HALF)
    assert np.linalg.norm(out - out_t.T) <= 1e-9


def test_transform_input_validation():
    with pytest.raises(NonFiniteError):
        spectral_transform(np.array([[1.0, np.inf]]), SpectralExponent.HALF)


def test_transform_failures_name_their_power():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 32)) @ rng.standard_normal((32, 128))
    with pytest.raises(KernelDivergenceError, match="residual grew") as info:
        spectral_transform(a, SpectralExponent.QUARTER, iters=60)
    assert str(info.value).startswith("spectral transform p=0.25: ")
    assert info.value.diagnostics is info.value.__cause__.diagnostics


# Every power that runs the inverse-root pass on the Gram matrix.
_GRAM_ROUTES = ((SpectralExponent.HALF, "quintic"), (SpectralExponent.QUARTER, "quintic"),
                (SpectralExponent.ZERO, "cubic"))


# Every route of the table, with the default budget and calibrated tolerance
# it must carry.
_ROUTES = (
    (SpectralExponent.ONE, "quintic", 0, 0.0),
    (SpectralExponent.HALF, "quintic", DEFAULT_ROOT_STEPS, REL_TOL_HALF),
    (SpectralExponent.QUARTER, "quintic", DEFAULT_ROOT_STEPS, REL_TOL_QUARTER),
    (SpectralExponent.ZERO, "quintic", DEFAULT_POLAR_ITERS, REL_TOL_ZERO_QUINTIC),
    (SpectralExponent.ZERO, "cubic", DEFAULT_CUBIC_ITERS, REL_TOL_POLAR_CUBIC),
)


@pytest.mark.parametrize("exponent,method,steps,tol", _ROUTES,
                         ids=("one", "half", "quarter", "quintic", "cubic"))
def test_route_table_is_what_transform_and_its_sidecar_use(tmp_path, exponent, method, steps, tol):
    chosen = kernels.route(exponent, method)
    assert (chosen.steps, chosen.rel_tol) == (steps, tol)
    a = spectrum_matrix(np.random.default_rng(0), 12, 8, 10.0)
    out, diag = spectral_transform(a, exponent, zero_method=method)
    pinned, pinned_diag = spectral_transform(a, exponent, iters=steps, zero_method=method)
    assert out.tobytes() == pinned.tobytes() and diag == pinned_diag
    src, dst = tmp_path / "in.mat", tmp_path / "out.mat"
    write_matrix(src, a)
    assert main(["transform", str(src), str(dst), "--p", exponent.value,
                 "--zero-method", method]) == 0
    assert json.loads((tmp_path / "out.mat.diag.json").read_text())["calibrated_rel_tol"] == tol
    if exponent is SpectralExponent.ZERO:  # spectral_transform's raise: test_transform_zero_methods
        with pytest.raises(PreconditionError, match="unknown zero-power method"):
            kernels.route(exponent, "householder")
    else:  # a non-zero power ignores the p = 0 method, whatever it names
        assert kernels.route(exponent, "householder") is chosen
        ignored, _ = spectral_transform(a, exponent, zero_method="householder")
        assert ignored.tobytes() == out.tobytes()


def test_transform_names_an_overflowed_gram():
    # Finite entries of 1e160 square past the float range; tier-1 turns
    # numpy's overflow warning into an error, so none may escape.
    for exponent, method in _GRAM_ROUTES:
        with pytest.raises(NonFiniteError, match="Gram matrix overflowed"):
            spectral_transform(np.full((4, 3), 1e160), exponent, zero_method=method)


def test_transform_checks_the_budget_before_the_gram():
    # The zero budget is the fault, not the entries that overflow the Gram.
    for exponent, method in _GRAM_ROUTES:
        with pytest.raises(PreconditionError, match="iteration count must be >= 1"):
            spectral_transform(np.full((4, 3), 1e160), exponent, iters=0, zero_method=method)


def test_transform_reports_an_unconverged_pass():
    # At kappa 1e4 the scaled steps converge inside the default budget
    # (15 steps for p = 1/2, 14 for p = 1/4); 8 steps leave the pass far
    # from converged (0.26 and 0.40 off), and its final residual says so.
    a = spectrum_matrix(np.random.default_rng(0), 128, 128, 1e4)
    for exponent, steps, err in ((SpectralExponent.HALF, 15, 1e-11),
                                 (SpectralExponent.QUARTER, 14, 1e-10)):
        want = spectral_power_exact(a, exponent.power)
        out, diag = spectral_transform(a, exponent)
        assert diag.iterations_run == steps < DEFAULT_ROOT_STEPS
        assert diag.residual_per_iter[-1] <= 1e-14
        assert rel_err(out, want) <= err
        out, diag = spectral_transform(a, exponent, iters=8)
        assert diag.iterations_run == 8
        assert diag.residual_per_iter[-1] > 1.0
        assert rel_err(out, want) > 0.1


@pytest.mark.parametrize("exponent", [SpectralExponent.HALF, SpectralExponent.QUARTER])
def test_transform_is_exact_on_well_conditioned_spectra(exponent):
    # Two composed square-root passes left 4.9e-5 (p = 1/2) and 6.0e-5
    # (p = 1/4) on the first input, and up to 2.9e-4 and 4.5e-4 on the
    # calibration's worst case at kappa 100: a dense spectrum with one 1e-2
    # singular value.
    a = spectrum_matrix(np.random.default_rng(0), 128, 128, 1e2)
    want = spectral_power_exact(a, exponent.power)
    assert rel_err(spectral_transform(a, exponent)[0], want) <= 1e-12
    rng = np.random.default_rng(0)
    for rows, cols in ((64, 48), (48, 64), (32, 24), (16, 8)):
        k = min(rows, cols)
        sigma = np.ones(k)
        sigma[-1] = 1e-2
        a = (random_orthogonal(rng, rows)[:, :k] * sigma) @ random_orthogonal(rng, cols)[:, :k].T
        want = spectral_power_exact(a, exponent.power)
        assert rel_err(spectral_transform(a, exponent)[0], want) <= 1e-10, (rows, cols)


@pytest.mark.parametrize("exponent,tol", [
    (SpectralExponent.HALF, REL_TOL_HALF),
    (SpectralExponent.QUARTER, REL_TOL_QUARTER),
])
def test_rank_deficient_input_is_exact_or_raises_at_every_budget(exponent, tol):
    # Along the null space of O^T O, M starts at rounding level and X grows
    # by a_k a step; O annihilates that growth until M's negative rounding
    # modes blow up, 30 (p = 1/2) and 27 (p = 1/4) steps in, and the growth
    # guard raises; before that the error stays within 4.1e-9. Every larger
    # budget runs the same steps and raises the same.
    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 64)) @ rng.standard_normal((64, 128)) / 64
    want = spectral_power_exact(a, exponent.power)
    for budget in range(1, 100):
        try:
            out, diag = spectral_transform(a, exponent, iters=budget)
        except KernelDivergenceError as exc:
            assert str(exc).startswith(f"spectral transform p={exponent.power}: "), exc
            assert "residual grew" in str(exc)
            first = exc.diagnostics
            break
        assert np.isfinite(out).all(), budget
        if budget >= DEFAULT_ROOT_STEPS:
            assert rel_err(out, want) <= tol, budget
    else:
        pytest.fail("the growth guard never raised")
    assert budget > DEFAULT_ROOT_STEPS
    with pytest.raises(KernelDivergenceError) as info:
        spectral_transform(a, exponent, iters=1000)
    assert info.value.diagnostics == first


def test_transform_reports_an_overflowed_root_iterate():
    # An exact zero singular value keeps M finite while X grows by
    # (q + 1)/q a step after the scaled ones; thousands of steps overflow X
    # (p = 1/2) or X^3 (p = 1/4), and the output's check raises with no
    # RuntimeWarning first.
    # The scaled steps move M's unit eigenvalue off 1 and back, so the
    # surviving one comes out a rounding step away.
    a = np.diag([1.0, 0.0])
    for exponent, one in ((SpectralExponent.HALF, 1.0000000000000002),
                          (SpectralExponent.QUARTER, 0.9999999999999997)):
        out, _ = spectral_transform(a, exponent, iters=1000)
        assert np.array_equal(out, np.diag([one, 0.0]))
        with pytest.raises(KernelDivergenceError, match="root iterate overflowed") as info:
            spectral_transform(a, exponent, iters=4000)
        assert str(info.value).startswith(f"spectral transform p={exponent.power}: ")
        assert info.value.diagnostics.iterations_run == 4000


# --- norms past the float range ---------------------------------------------
# A norm past about 1.3e154 overflows the sum of squares. Each case ran on a
# normalizer of inf (NaN output, or a silent zero matrix) with a RuntimeWarning,
# which tier-1 turns into an error. Enough iterations reach the exact answer.


def test_coupled_sqrt_normalizes_past_the_float_range():
    y, z, diag = coupled_root(np.diag([1e300, 1.0]), 2, iters=1000)
    assert diag.scale_alpha == 1e300
    assert diag.residual_per_iter[-1] < 1e-14
    assert np.allclose(y, np.diag([1e150, 1.0]), rtol=1e-14, atol=0.0)
    assert np.allclose(z, np.diag([1e-150, 1.0]), rtol=1e-14, atol=0.0)


def test_quintic_normalizes_past_the_float_range():
    # The exact polar factor is I; the quintic lands in its band around it.
    out, diag = polar_quintic(np.diag([1e300, 1.0]), iters=600)
    assert diag.scale_alpha == 1e300
    assert out[0, 1] == 0.0 and out[1, 0] == 0.0
    lo, hi = QUINTIC_SV_BAND
    assert lo < out[0, 0] < hi and lo < out[1, 1] < hi
    # At the default budget it runs the iterates of diag(1, 1e-300) exactly.
    got, _ = polar_quintic(np.diag([1e300, 1.0]))
    want, _ = polar_quintic(np.diag([1.0, 1e-300]))
    assert np.array_equal(got, want)


def test_transform_normalizes_a_gram_past_the_float_range():
    # The Gram diag(1e200, 1, 4) is finite; its norm is not.
    out, diag = spectral_transform(np.diag([1e100, 1.0, 2.0]), SpectralExponent.HALF, iters=1000)
    assert diag.scale_alpha == 1e200
    want = np.diag([1e50, 1.0, np.sqrt(2.0)])
    assert np.allclose(out, want, rtol=1e-14, atol=0.0)


# --- the scaled step schedule ------------------------------------------------


def _greedy_schedule(lo, q, r_max):
    """(a_k, b_k) and the interval floors l_k of the greedy scaled Newton
    schedule from [lo, 1]: with h(mu) = (1 - r mu)^q mu, r equalizes h at
    both ends, capped at r_max, and a_k = max h^(-1/q), until 1 - l_k <= 1e-3."""
    steps, floors = [], [lo]
    while 1.0 - lo > 1e-3:
        rho = lo ** (-1.0 / q)
        r = min((rho - 1.0) / (rho - lo), r_max)

        def h(mu):
            return (1.0 - r * mu) ** q * mu

        peak = 1.0 / ((q + 1) * r)
        hi = h(peak) if lo < peak < 1.0 else max(h(lo), h(1.0))
        a = hi ** (-1.0 / q)
        steps.append((a, a * r))
        lo = min(h(lo), h(1.0)) / hi
        floors.append(lo)
    return steps, floors


_SCHEDULES = {q: _greedy_schedule(1e-10, q, r_max)[0] for q, r_max in ((4, 0.7), (8, 0.5))}


@pytest.mark.parametrize("q,r_max,first,last", [
    (4, 0.7, (1.709728, 1.196810), (1.255282, 0.255326)),
    (8, 0.5, (1.357701, 0.678850), (1.125792, 0.125795)),
])
def test_scaled_step_tables_rebuild_from_the_greedy(q, r_max, first, last):
    steps, floors = _greedy_schedule(1e-10, q, r_max)
    assert kernels._SCALED_STEPS[q] == tuple(steps)
    assert np.allclose([steps[0], steps[-1]], [first, last], rtol=0.0, atol=1e-6)
    assert floors[-1] >= 1.0 - 1e-3
    # Each step maps the spectrum [l_k, 1] of M into [l_{k+1}, 1].
    for (a, b), lo, lo_next in zip(steps, floors, floors[1:]):
        mu = np.unique(np.concatenate([np.geomspace(lo, 1.0, 4001), np.linspace(lo, 1.0, 4001)]))
        image = (a - b * mu) ** q * mu
        assert image.min() >= lo_next * (1.0 - 1e-12) and image.max() <= 1.0 + 1e-12, (a, b)
    assert 2 not in kernels._SCALED_STEPS


def _stiff_inputs(seed):
    rng = np.random.default_rng(seed)
    for rows, cols in ((96, 16), (32, 24), (96, 128), (128, 128)):
        for cond in (1e4, 1e6):
            yield f"{rows}x{cols}@{cond:g}", spectrum_matrix(rng, rows, cols, cond)
    yield "128x128@rank64", rng.standard_normal((128, 64)) @ rng.standard_normal((64, 128)) / 64


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stiff_spectra_meet_the_tolerance_at_the_default_budget(seed):
    # Plain Newton steps lift a small eigenvalue of M 2.4x (q = 4) or 2.6x
    # (q = 8) a step, so 18 of them left kappa 1e4 about 6e-3 off at p = 1/2.
    # O^T Z = V diag(sigma^(1 + p)) V^T must also come out symmetric positive
    # semidefinite within 1e-9 of its norm.
    for label, a in _stiff_inputs(seed):
        tri = jacobi_svd(a)
        for exponent, tol in ((SpectralExponent.HALF, REL_TOL_HALF),
                              (SpectralExponent.QUARTER, REL_TOL_QUARTER)):
            out, _ = spectral_transform(a, exponent)
            want = (tri.u * tri.sigma ** exponent.power) @ tri.v.T
            assert rel_err(out, want) <= tol, (label, exponent)
            s = a.T @ out
            scale = np.linalg.norm(s)
            assert np.linalg.norm(s - s.T) <= 1e-9 * scale, (label, exponent)
            assert np.linalg.eigvalsh(0.5 * (s + s.T))[0] >= -1e-9 * scale, (label, exponent)


# --- bit-for-bit pin against the textbook loops ----------------------------


def _ref_root(a, q, j, iters=18):
    """One coupled Newton pass for the inverse q-th root of A = O^T O, as
    written in the textbook: M_0 = A / ||A||_F, X_0 = I, and per step
    T = a_k I - b_k M from the greedy schedule (none for q = 2), then
    T = ((q + 1) I - M) / q, X <- X T, M <- T^q M with T^q by repeated
    squaring, until ||M - I||_F <= 1e-14. The output is O X^j ||A||_F^(-j/q)."""
    scaled = _SCHEDULES.get(q, [])
    work = a.T if a.shape[0] < a.shape[1] else a
    x = work.T @ work
    x = 0.5 * (x + x.T)
    alpha = float(np.linalg.norm(x))
    eye = np.eye(x.shape[0])
    m, root = x / alpha, eye
    residuals = []
    while len(residuals) < iters:
        if len(residuals) < len(scaled):
            a_k, b_k = scaled[len(residuals)]
            t = a_k * eye - b_k * m
        else:
            t = ((q + 1) * eye - m) / q
        root = root @ t
        for _ in range(int(np.log2(q))):
            t = t @ t
        m = t @ m
        residuals.append(float(np.linalg.norm(m - eye)))
        if residuals[-1] <= 1e-14:
            break
    power = root
    for _ in range(j - 1):
        power = power @ root
    out = work @ (power * alpha ** (-j / q))
    return (out.T if work is not a else out), (len(residuals), alpha, residuals)


def _ref_half(a):
    return _ref_root(a, 4, 1)


def _ref_quarter(a):
    return _ref_root(a, 8, 3)


def _ref_quintic(a, iters=5, a_=3.4445, b_=-4.7750, c_=2.0315):
    """Z <- Z (a I + b B + c B^2) with B = Z^T Z, on the tall side."""
    work = a.T if a.shape[0] < a.shape[1] else a
    alpha = float(np.linalg.norm(work))
    z = work / alpha
    eye = np.eye(z.shape[1])
    residuals = []
    for k in range(iters):
        b = z.T @ z
        if k > 0:
            residuals.append(float(np.linalg.norm(b - eye)))
        z = z @ (a_ * eye + b_ * b + c_ * (b @ b))
    residuals.append(float(np.linalg.norm(z.T @ z - eye)))
    return (z.T if work is not a else z), (iters, alpha, residuals)


def _ref_cubic(a):
    """The polar factor O (O^T O)^(-1/2) from the q = 2 pass, or None where
    its final residual stays above the 0.5 ceiling."""
    out, fields = _ref_root(a, 2, 1, iters=40)
    return (None if fields[-1][-1] > 0.5 else out), fields


def _pin_inputs():
    rng = np.random.default_rng(2024)
    for r, c in ((32, 24), (96, 16), (16, 96), (128, 128)):
        for cond in (1e2, 1e4, 1e6):
            yield f"{r}x{c}@{cond:g}", spectrum_matrix(rng, r, c, cond)
    yield "128x128@rank64", rng.standard_normal((128, 64)) @ rng.standard_normal((64, 128)) / 64


@pytest.mark.parametrize("p,method,reference", [
    (SpectralExponent.HALF, "quintic", _ref_half),
    (SpectralExponent.QUARTER, "quintic", _ref_quarter),
    (SpectralExponent.ZERO, "quintic", _ref_quintic),
    (SpectralExponent.ZERO, "cubic", _ref_cubic),
])
def test_kernels_match_the_textbook_loops_bit_for_bit(p, method, reference):
    # The kernels skip the products with X_0 = I and scan no iterate for
    # non-finite values; none of that may move a bit.
    _assert_textbook_bits(p, method, reference)


def _assert_textbook_bits(p, method, reference):
    for label, a in _pin_inputs():
        want, fields = reference(a)
        try:
            got, diag = spectral_transform(a, p, zero_method=method)
        except KernelDivergenceError as exc:
            got, diag = None, exc.diagnostics
        if want is None:
            assert got is None, label
        else:
            assert np.array_equal(got, want), label
            assert np.array_equal(np.signbit(got), np.signbit(want)), label
        iterations, alpha, residuals = fields
        assert diag.iterations_run == iterations, label
        assert np.array_equal(diag.scale_alpha, alpha), label
        assert np.array_equal(diag.residual_per_iter, residuals), label


@pytest.mark.parametrize("x,updates,residuals", [
    (np.diag([1.0, -1.0]), 2, [3.43010568350306, 18.903398360213288]),
    (np.diag([1.0, -0.3, 0.2]), 3, [1.8687939185810032, 3.703842618192371, 22.71836250014071]),
])
def test_coupled_divergence_reports_are_pinned(x, updates, residuals):
    with pytest.raises(KernelDivergenceError, match="residual grew") as info:
        coupled_root(x, 2)
    diag = info.value.diagnostics
    assert diag.iterations_run == updates
    assert diag.residual_per_iter == residuals


def test_a_non_finite_residual_counts_its_step_but_not_its_residual():
    nan = np.full((2, 2), np.nan)
    with np.errstate(invalid="ignore"), pytest.raises(KernelDivergenceError) as info:
        kernels._inverse_root_core(nan, 4, 10, "inverse 4th root")
    assert str(info.value) == "inverse 4th root iteration 1 produced non-finite values"
    diag = info.value.diagnostics
    assert diag.iterations_run == 1
    assert diag.residual_per_iter == []


# --- the helper lane of the inverse-root pass --------------------------------


def root_threads():
    return [t for t in threading.enumerate() if t.name == "specopt-root"]


@pytest.fixture
def lane_floor(monkeypatch):
    """Set the Gram side from which X goes to the helper, inside one BLAS
    thread per call; returns the setter and the names of the threads that
    computed each product of X."""
    folded = []
    push = dense.Lane.push

    def spying(self, fn, *args):
        def spy(*args):
            folded.append(threading.current_thread().name)
            return fn(*args)
        push(self, spy, *args)

    monkeypatch.setattr(dense.Lane, "push", spying)
    with dense.one_blas_thread():
        if dense.step_lanes() < 2:
            pytest.skip("needs two CPUs and a BLAS whose thread count can be set")
        yield lambda side: monkeypatch.setattr(kernels, "_LANE_MIN_SIDE", side), folded


@pytest.mark.parametrize("side,lane", [(1, "specopt-root"), (10**9, "MainThread")])
@pytest.mark.parametrize("p,reference", [
    (SpectralExponent.HALF, _ref_half),
    (SpectralExponent.QUARTER, _ref_quarter),
    (SpectralExponent.ZERO, _ref_cubic),
])
def test_the_root_pass_matches_the_textbook_loop_on_either_lane(lane_floor, side, lane, p,
                                                                  reference):
    set_floor, folded = lane_floor
    set_floor(side)
    _assert_textbook_bits(p, "cubic" if p is SpectralExponent.ZERO else "quintic", reference)
    assert set(folded) == {lane}


def test_every_exit_of_the_root_pass_joins_its_helper(lane_floor):
    set_floor, folded = lane_floor
    set_floor(1)
    exits = []
    spectral_transform(spectrum_matrix(np.random.default_rng(0), 16, 8, 1e2),
                       SpectralExponent.HALF)
    exits.append((len(folded), root_threads()))
    with pytest.raises(KernelDivergenceError, match="residual stuck"):
        polar_cubic(np.ones((6, 4)))
    exits.append((len(folded), root_threads()))
    rng = np.random.default_rng(0)
    rank64 = rng.standard_normal((128, 64)) @ rng.standard_normal((64, 128)) / 64
    with pytest.raises(KernelDivergenceError, match="residual grew"):
        spectral_transform(rank64, SpectralExponent.HALF, iters=1000)
    exits.append((len(folded), root_threads()))
    with np.errstate(invalid="ignore"), pytest.raises(KernelDivergenceError, match="non-finite"):
        kernels._inverse_root_core(np.full((2, 2), np.nan), 4, 10, "inverse 4th root")
    exits.append((len(folded), root_threads()))
    # X overflows on the helper; the caller's error state must reach it, or
    # its overflow warning (an error in tier-1) would surface instead.
    with pytest.raises(KernelDivergenceError, match="root iterate overflowed"):
        spectral_transform(np.diag([1.0, 0.0]), SpectralExponent.HALF, iters=4000)
    exits.append((len(folded), root_threads()))
    assert set(folded) == {"specopt-root"}
    counts = [count for count, _ in exits]
    assert counts == sorted(set(counts)) and counts[0] > 0
    assert all(alive == [] for _, alive in exits)


def test_a_failure_on_the_helper_reaches_the_caller(lane_floor, monkeypatch):
    set_floor, _ = lane_floor
    set_floor(1)
    with dense.Lane(True, "specopt-root") as lane:
        for a, b in ((np.ones((2, 3)), np.ones((2, 3))), (np.ones((3, 3)), np.ones((3, 3)))):
            lane.push(np.dot, a, b)
        with pytest.raises(ValueError, match="not aligned"):
            lane.wait()
    assert not root_threads()
    push, pushed = dense.Lane.push, []

    def pushing(self, fn, *args):
        pushed.append(fn)
        if len(pushed) == 4:
            def fn(t):
                raise MemoryError(f"no room for X on {threading.current_thread().name}")
        push(self, fn, *args)

    monkeypatch.setattr(dense.Lane, "push", pushing)
    with pytest.raises(MemoryError, match="no room for X on specopt-root"):
        spectral_transform(spectrum_matrix(np.random.default_rng(0), 16, 8, 1e2),
                           SpectralExponent.QUARTER)
    assert not root_threads()


def test_a_training_steps_helper_takes_the_folds_from_128_wide(lane_floor, monkeypatch):
    """Outside a training step a 128-wide pass folds X on a lane of its own;
    inside folds_on it folds on the step's helper, starts no thread and reads
    no lane count, and a narrower pass folds inline. The bits stay the same."""
    _, folded = lane_floor
    started, reads = [], []
    start = threading.Thread.start

    def starting(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", starting)
    monkeypatch.setattr(dense, "step_lanes", lambda: reads.append(2) or 2)
    rng = np.random.default_rng(0)
    wide, narrow = spectrum_matrix(rng, 128, 128, 1e2), spectrum_matrix(rng, 96, 16, 1e2)
    direct = spectral_transform(wide, SpectralExponent.HALF)[0]
    assert started == ["specopt-root"] and len(reads) == 1 and set(folded) == {"specopt-root"}
    with dense.Lane(True, "specopt-test") as helper:
        for seen in (started, reads, folded):
            seen.clear()
        with kernels.folds_on(helper):
            stepped = spectral_transform(wide, SpectralExponent.HALF)[0]
            assert set(folded) == {"specopt-test"}
            folded.clear()
            spectral_transform(narrow, SpectralExponent.HALF)
            assert set(folded) == {"MainThread"}
    assert started == [] and reads == []
    assert stepped.tobytes() == direct.tobytes()
