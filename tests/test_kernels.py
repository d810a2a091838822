"""Multiplication-only kernels checked against the exact oracle."""

import numpy as np
import pytest

from specopt.calibration import (
    QUINTIC_SV_BAND,
    REL_TOL_HALF,
    REL_TOL_POLAR_CUBIC,
    REL_TOL_QUARTER,
)
from specopt.errors import (
    DegenerateInputError,
    KernelDivergenceError,
    NonFiniteError,
    PreconditionError,
    ShapeError,
)
from specopt.kernels import (
    QUINTIC_COEFFICIENTS,
    SpectralExponent,
    coupled_ns_quarter,
    coupled_ns_sqrt,
    polar_cubic,
    polar_quintic,
    spectral_transform,
)
from specopt.oracle import svd_via_gram
from specopt.synth import random_orthogonal, random_spd, spectrum_matrix

FIXTURE5 = np.diag([9.0, 4.0, 1.0, 0.01, 0.0001])


def rel_err(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def oracle_power(a, p):
    tri = svd_via_gram(a)
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
    sv = svd_via_gram(out).sigma
    assert sv[0] <= 1.11
    assert sv[-1] >= 0.46


def test_quintic_band_on_normalized_inputs():
    rng = np.random.default_rng(1)
    for _ in range(15):
        a = spectrum_matrix(rng, int(rng.integers(4, 30)), int(rng.integers(4, 25)),
                            float(10.0 ** rng.uniform(0.0, 2.0)))
        sv = svd_via_gram(polar_quintic(a)[0]).sigma
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
        tri = svd_via_gram(a)
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
    assert diag.pass_residuals == [diag.residual_per_iter[-1]] == [1.7320508074436978]
    assert diag.scale_alpha == 1.0 / 24.0
    with pytest.raises(DegenerateInputError):
        polar_cubic(np.zeros((4, 4)))


# --- coupled square root --------------------------------------------------


def test_coupled_sqrt_identity_converges():
    root, inv_root, _ = coupled_ns_sqrt(np.eye(5))
    assert np.linalg.norm(root - np.eye(5)) <= 1e-6
    assert np.linalg.norm(inv_root - np.eye(5)) <= 1e-6


def test_coupled_sqrt_diagonal():
    root, inv_root, _ = coupled_ns_sqrt(np.diag([4.0, 1.0]))
    assert np.allclose(root, np.diag([2.0, 1.0]), atol=1e-8)
    assert np.allclose(inv_root, np.diag([0.5, 1.0]), atol=1e-8)


def test_coupled_sqrt_reconstruction():
    rng = np.random.default_rng(5)
    x = random_spd(rng, 8, 50.0)
    root, inv_root, diag = coupled_ns_sqrt(x)
    assert np.linalg.norm(root @ inv_root - np.eye(8)) <= 1e-7
    assert np.linalg.norm(root @ root - x) <= 1e-7 * np.linalg.norm(x)
    assert diag.scale_alpha == np.linalg.norm(x)
    assert diag.scale_beta is None


def test_coupled_sqrt_residual_contraction():
    # residuals drop monotonically after the first step and at quadratic
    # order (constant C = 1 for this iteration) once below one half
    rng = np.random.default_rng(6)
    x = random_spd(rng, 10, 30.0)
    _, _, diag = coupled_ns_sqrt(x)
    res = diag.residual_per_iter
    for a, b in zip(res[1:], res[2:]):
        assert b <= a + 1e-13
    for a, b in zip(res, res[1:]):
        if a < 0.5:
            assert b <= a * a + 1e-13


def test_coupled_sqrt_preconditions():
    with pytest.raises(ShapeError):
        coupled_ns_sqrt(np.zeros((2, 3)))
    with pytest.raises(PreconditionError):
        coupled_ns_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(PreconditionError):
        coupled_ns_sqrt(np.eye(3), iters=0)
    with pytest.raises(NonFiniteError):
        coupled_ns_sqrt(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# --- coupled quarter root -------------------------------------------------


def test_coupled_quarter_identity_and_diagonal():
    q, iq, diag = coupled_ns_quarter(np.eye(3))
    assert np.linalg.norm(q - np.eye(3)) <= 1e-6
    assert np.linalg.norm(iq - np.eye(3)) <= 1e-6
    assert diag.scale_beta is not None
    q, iq, _ = coupled_ns_quarter(np.diag([16.0, 1.0]))
    assert np.allclose(q, np.diag([2.0, 1.0]), atol=1e-6)
    assert np.allclose(iq, np.diag([0.5, 1.0]), atol=1e-6)


def test_coupled_quarter_reconstruction():
    rng = np.random.default_rng(7)
    x = random_spd(rng, 8, 20.0)
    q, iq, _ = coupled_ns_quarter(x)
    fourth = q @ q @ q @ q
    assert np.linalg.norm(fourth - x) <= 1e-6 * np.linalg.norm(x)
    assert np.linalg.norm(q @ iq - np.eye(8)) <= 1e-7


def test_single_pass_kernels_report_their_final_residual():
    rng = np.random.default_rng(9)
    x = random_spd(rng, 6, 20.0)
    _, _, diag = coupled_ns_sqrt(x)
    assert diag.pass_residuals == [diag.residual_per_iter[-1]]
    _, diag = polar_cubic(rng.standard_normal((8, 5)))
    assert diag.pass_residuals == [diag.residual_per_iter[-1]]
    _, diag = polar_quintic(rng.standard_normal((8, 5)))
    assert diag.pass_residuals == []


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
    sv = np.sort(svd_via_gram(out).sigma)[::-1]
    assert np.max(np.abs(sv - [3.0, 2.0, 1.0, 0.1, 0.01])) <= 1e-9
    out, _ = spectral_transform(FIXTURE5, SpectralExponent.QUARTER, iters=40)
    sv = np.sort(svd_via_gram(out).sigma)[::-1]
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
    tri = svd_via_gram(a)
    polar = tri.u @ tri.v.T
    cubic, _ = spectral_transform(a, SpectralExponent.ZERO, zero_method="cubic")
    assert rel_err(cubic, polar) <= REL_TOL_POLAR_CUBIC
    quintic, _ = spectral_transform(a, SpectralExponent.ZERO)
    sv = svd_via_gram(quintic).sigma
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


def test_transform_names_an_overflowed_gram():
    # Finite entries of 1e160 square past the float range; tier-1 turns
    # numpy's overflow warning into an error, so none may escape.
    for exponent in (SpectralExponent.HALF, SpectralExponent.QUARTER):
        with pytest.raises(NonFiniteError, match="Gram matrix overflowed"):
            spectral_transform(np.full((4, 3), 1e160), exponent)


def test_transform_reports_an_unconverged_pass_behind_a_converged_one():
    # At kappa 1e4 the default 15 iterations per pass leave the first half
    # transform far from converged; the second half transform converges on
    # its already flattened input, so the concatenated history ends small
    # while the quarter power is about 8e-2 off.
    a = spectrum_matrix(np.random.default_rng(0), 128, 128, 1e4)
    _, half = spectral_transform(a, SpectralExponent.HALF)
    _, quarter = spectral_transform(a, SpectralExponent.QUARTER)
    assert len(half.pass_residuals) == 2
    assert len(quarter.pass_residuals) == 4
    assert quarter.pass_residuals[:2] == half.pass_residuals
    assert quarter.residual_per_iter[-1] < 1e-12
    assert quarter.pass_residuals[-1] == quarter.residual_per_iter[-1]
    assert quarter.pass_residuals[0] > 1.0


# --- norms past the float range ---------------------------------------------
# A norm past about 1.3e154 overflows the sum of squares. Each case ran on a
# normalizer of inf (NaN output, or a silent zero matrix) with a RuntimeWarning,
# which tier-1 turns into an error. Enough iterations reach the exact answer.


def test_coupled_sqrt_normalizes_past_the_float_range():
    y, z, diag = coupled_ns_sqrt(np.diag([1e300, 1.0]), iters=1000)
    assert diag.scale_alpha == 1e300
    assert diag.pass_residuals[0] < 1e-14
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


# --- bit-for-bit pin against the textbook loops ----------------------------


def _ref_coupled(x, iters, exit_tol):
    """Coupled Newton pass as written in the textbook: Z_0 = I,
    T = 3 I - Z Y, Y <- Y T / 2, Z <- T Z / 2."""
    eye = np.eye(x.shape[0])
    alpha = float(np.linalg.norm(x))
    y, z = x / alpha, eye
    residuals, updates = [], 0
    while updates < iters:
        prod = z @ y
        if updates > 0:
            residuals.append(float(np.linalg.norm(prod - eye)))
            if residuals[-1] <= exit_tol:
                break
        t = 3.0 * eye - prod
        y = 0.5 * (y @ t)
        z = 0.5 * (t @ z)
        updates += 1
    else:
        residuals.append(float(np.linalg.norm(z @ y - eye)))
    return y, z, alpha, residuals, updates


def _ref_half(a, iters=15):
    work = a.T if a.shape[0] < a.shape[1] else a
    x = work.T @ work
    x = 0.5 * (x + x.T)
    y1, _, alpha, res1, up1 = _ref_coupled(x, iters, 1e-14)
    half = np.sqrt(alpha) * y1
    half = 0.5 * (half + half.T)
    _, z2, beta, res2, up2 = _ref_coupled(half, iters, 1e-14)
    out = work @ (z2 / np.sqrt(beta))
    return (out.T if work is not a else out), (up1 + up2, alpha, beta, res1 + res2,
                                               [res1[-1], res2[-1]])


def _ref_quarter(a):
    first, d1 = _ref_half(a)
    second, d2 = _ref_half(first)
    return second, (d1[0] + d2[0], d1[1], d2[2], d1[3] + d2[3], d1[4] + d2[4])


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
    return (z.T if work is not a else z), (iters, alpha, None, residuals, [])


def _ref_cubic(a, iters=40):
    work = a.T if a.shape[0] < a.shape[1] else a
    x = work.T @ work
    x = 0.5 * (x + x.T)
    _, z, xnorm, residuals, updates = _ref_coupled(x, iters, 1e-12)
    diag = (updates, 1.0 / xnorm, None, residuals, [residuals[-1]])
    if residuals[-1] > 0.5:
        return None, diag
    out = (work @ z) / np.sqrt(xnorm)
    return (out.T if work is not a else out), diag


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
    # The kernels skip the products with Z_0 = I, fold the 1/2 into T and
    # scan no iterate for non-finite values; none of that may move a bit.
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
        iterations, alpha, beta, residuals, passes = fields
        assert diag.iterations_run == iterations, label
        assert np.array_equal(diag.scale_alpha, alpha), label
        assert np.array_equal(diag.scale_beta, beta), label
        assert np.array_equal(diag.residual_per_iter, residuals), label
        assert np.array_equal(diag.pass_residuals, passes), label


@pytest.mark.parametrize("x,updates,residuals", [
    (np.diag([1.0, -1.0]), 2, [3.4301056835030606, 18.903398360213288]),
    (np.diag([1.0, -0.3, 0.2]), 3, [1.8687939185810034, 3.703842618192371, 22.718362500140714]),
])
def test_coupled_divergence_reports_are_pinned(x, updates, residuals):
    with pytest.raises(KernelDivergenceError, match="residual grew") as info:
        coupled_ns_sqrt(x)
    diag = info.value.diagnostics
    assert diag.iterations_run == updates
    assert diag.residual_per_iter == residuals
    assert diag.pass_residuals == []
