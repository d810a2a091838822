"""Optimizer naming, moment bookkeeping, and step rules.

The step tests pin bit-exact agreement with hand-written update formulas
wherever the arithmetic allows it, because the training loop's replay
guarantee leans on the step functions being deterministic to the last bit.
"""

import itertools
import math

import numpy as np
import pytest

from specopt.errors import (
    ConfigError,
    KernelDivergenceError,
    PoisonedGradientError,
    RoutingError,
)
from specopt.kernels import SpectralExponent
from specopt.optim import (
    ALL_OPTIMIZERS,
    MUON,
    HyperParams,
    InputKind,
    OptimizerKind,
    OptimizerState,
    make_input,
    parse_optimizer,
    step_matrix_param,
    step_vector_param,
    update_moments,
)

# --- naming and parsing -----------------------------------------------------


def test_all_optimizers_names_and_tokens():
    names = [k.name for k in ALL_OPTIMIZERS]
    assert names == ["mSGD", "mSGDS", "mSGDQ", "mSGDZ",
                     "Adam", "AdamS", "AdamQ", "AdamZ"]
    tokens = [k.token for k in ALL_OPTIMIZERS]
    assert tokens == [n.lower() for n in names]
    assert len(set(ALL_OPTIMIZERS)) == 8


def test_parse_round_trips_every_token():
    for kind in ALL_OPTIMIZERS:
        assert parse_optimizer(kind.token) == kind
        assert parse_optimizer(kind.token.upper()) == kind
        assert parse_optimizer("  " + kind.token + " ") == kind


def test_muon_alias():
    assert parse_optimizer("muon") == MUON
    assert MUON == OptimizerKind(InputKind.MOMENTUM, SpectralExponent.ZERO)
    assert MUON.token == "msgdz"
    assert MUON.describe() == "msgdz (muon)"
    # nobody else advertises an alias
    for kind in ALL_OPTIMIZERS:
        if kind != MUON:
            assert kind.describe() == kind.token


def test_parse_rejects_unknown():
    with pytest.raises(ConfigError, match="unknown optimizer"):
        parse_optimizer("sgd")
    with pytest.raises(ConfigError):
        parse_optimizer("")


def test_hyperparams_validation():
    with pytest.raises(ConfigError):
        HyperParams(lr_mat=0.1, beta1=1.0)
    with pytest.raises(ConfigError):
        HyperParams(lr_mat=0.1, beta2=-0.1)
    with pytest.raises(ConfigError):
        HyperParams(lr_mat=0.1, eps=-1e-9)
    with pytest.raises(ConfigError):
        HyperParams(lr_mat=-0.1)
    with pytest.raises(ConfigError):
        HyperParams(lr_mat=0.1, lr_vec=-1.0)
    with pytest.raises(ConfigError):
        HyperParams(lr_mat=0.1, spectral_iters=0)
    HyperParams(lr_mat=0.0, eps=0.0, spectral_iters=1)  # boundary values ok


# --- moment updates ---------------------------------------------------------


def test_first_moment_update_matches_hand_formula():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 3))
    hp = HyperParams(lr_mat=0.1)
    state = OptimizerState.initial(g, need_v=True)
    new = update_moments(state, g, hp, need_v=True)
    assert np.array_equal(new.m, (1.0 - hp.beta1) * g)
    assert np.array_equal(new.v, (1.0 - hp.beta2) * (g * g))


def test_moments_decay_geometrically_on_zero_gradients():
    rng = np.random.default_rng(1)
    g0 = rng.standard_normal((3, 3))
    hp = HyperParams(lr_mat=0.1)
    state = update_moments(OptimizerState.initial(g0, True), g0, hp, True)
    m1, v1 = state.m.copy(), state.v.copy()
    zero = np.zeros_like(g0)
    for _ in range(5):
        state = update_moments(state, zero, hp, True)
    assert np.allclose(state.m, hp.beta1 ** 5 * m1, rtol=1e-12)
    assert np.allclose(state.v, hp.beta2 ** 5 * v1, rtol=1e-12)


def test_constant_gradient_is_a_fixed_point_of_the_averages():
    g = np.full((2, 2), 3.0)
    hp = HyperParams(lr_mat=0.1)
    state = OptimizerState(m=g.copy(), v=(g * g).copy())
    new = update_moments(state, g, hp, True)
    assert np.allclose(new.m, g, rtol=1e-15)
    assert np.allclose(new.v, g * g, rtol=1e-15)


def test_update_moments_is_pure():
    g = np.ones((2, 2))
    hp = HyperParams(lr_mat=0.1)
    state = OptimizerState.initial(g, True)
    m_before = state.m.copy()
    new = update_moments(state, g, hp, True)
    assert np.array_equal(state.m, m_before)
    assert new.m is not state.m


def test_poisoned_gradient_is_rejected_with_parameter_name():
    g = np.array([[1.0, np.nan], [0.0, 2.0]])
    hp = HyperParams(lr_mat=0.1)
    state = OptimizerState.initial(g, True)
    with pytest.raises(PoisonedGradientError, match="'embed'"):
        update_moments(state, g, hp, True, param_name="embed")
    with pytest.raises(PoisonedGradientError):
        update_moments(state, np.array([[np.inf]]), hp, True)


# --- raw input construction -------------------------------------------------


def test_momentum_input_is_the_first_moment():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((3, 4))
    hp = HyperParams(lr_mat=0.1)
    state = update_moments(OptimizerState.initial(g, False), g, hp, False)
    assert np.array_equal(make_input(state, InputKind.MOMENTUM, hp), state.m)


def test_rms_input_first_step_magnitude_is_bit_exact():
    # after one +-1 gradient with zero eps the entries are exactly
    # (1 - beta1) / sqrt(1 - beta2): g*g == 1 exactly so no rounding enters
    # beyond the constants themselves
    g = np.array([[1.0, -1.0], [-1.0, 1.0]])
    hp = HyperParams(lr_mat=0.1, eps=0.0)
    state = update_moments(OptimizerState.initial(g, True), g, hp, True)
    out = make_input(state, InputKind.RMS_NORMALIZED, hp)
    expected = (1.0 - hp.beta1) / math.sqrt(1.0 - hp.beta2)
    assert expected == 0.44721359549995765
    assert np.array_equal(out, expected * g)
    # the IEEE value sits within a few ulps of sqrt(0.2)
    assert abs(expected - 0.4472135954999579) < 1e-15


def test_rms_input_with_zero_variance_divides_by_eps():
    hp = HyperParams(lr_mat=0.1, eps=1e-8)
    state = OptimizerState(m=np.ones((2, 2)), v=np.zeros((2, 2)))
    out = make_input(state, InputKind.RMS_NORMALIZED, hp)
    assert np.array_equal(out, np.full((2, 2), 1e8))


def test_rms_input_requires_tracked_second_moments():
    hp = HyperParams(lr_mat=0.1)
    state = OptimizerState(m=np.ones((2, 2)), v=None)
    with pytest.raises(RoutingError):
        make_input(state, InputKind.RMS_NORMALIZED, hp)


def test_rms_ratio_is_bounded_over_all_sign_sequences():
    # brute force every +-1 gradient sequence of length 12 and track the
    # ratio |m_t| / sqrt(v_t) at every prefix; the maximum lands exactly on
    # the all-same-sign sequence and stays below the closed-form supremum
    # (1-b1) / sqrt((1-b2) (1 - b1^2/b2))
    b1, b2 = 0.9, 0.95
    worst = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=12):
        m = v = 0.0
        for s in signs:
            m = b1 * m + (1.0 - b1) * s
            v = b2 * v + (1.0 - b2) * s * s
            worst = max(worst, abs(m) / math.sqrt(v))
    closed_form = (1.0 - b1 ** 12) / math.sqrt(1.0 - b2 ** 12)
    assert abs(worst - closed_form) < 1e-12
    supremum = (1.0 - b1) / math.sqrt((1.0 - b2) * (1.0 - b1 ** 2 / b2))
    assert worst < supremum < 1.1662


# --- matrix steps -----------------------------------------------------------


def test_msgd_step_is_bit_exact_momentum_sgd():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((5, 4))
    g = rng.standard_normal((5, 4))
    hp = HyperParams(lr_mat=0.02)
    kind = parse_optimizer("msgd")
    state = OptimizerState.initial(w, need_v=False)
    new_w, new_state, diag = step_matrix_param(w, g, state, kind, hp)
    assert np.array_equal(new_w, w - hp.lr_mat * ((1.0 - hp.beta1) * g))
    assert diag is None
    assert new_state.v is None


def test_adam_step_is_bit_exact_against_hand_formula():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((6, 3))
    g = rng.standard_normal((6, 3))
    hp = HyperParams(lr_mat=0.01)
    state = OptimizerState.initial(w, need_v=True)
    new_w, _, diag = step_matrix_param(w, g, state, parse_optimizer("adam"), hp)
    m = (1.0 - hp.beta1) * g
    v = (1.0 - hp.beta2) * (g * g)
    assert np.array_equal(new_w, w - hp.lr_mat * (m / (np.sqrt(v) + hp.eps)))
    assert diag is None


def test_fan_scale_default_applies_only_to_muon():
    # a 64x16 parameter gets sqrt(64/16) = 2, an exact power of two, so the
    # scaled step is bit-for-bit twice the unscaled one; starting from w = 0
    # makes the step directly readable off the new parameter
    rng = np.random.default_rng(5)
    w = np.zeros((64, 16))
    g = rng.standard_normal((64, 16))
    on = HyperParams(lr_mat=0.1)
    off = HyperParams(lr_mat=0.1, fan_scaling=False)

    new_on, _, _ = step_matrix_param(w, g, OptimizerState.initial(w, False), MUON, on)
    new_off, _, _ = step_matrix_param(w, g, OptimizerState.initial(w, False), MUON, off)
    assert np.array_equal(new_on, 2.0 * new_off)

    for token in ("msgd", "msgds", "msgdq", "adam", "adams", "adamq", "adamz"):
        kind = parse_optimizer(token)
        need_v = kind.base is InputKind.RMS_NORMALIZED
        a, _, _ = step_matrix_param(w, g, OptimizerState.initial(w, need_v), kind, on)
        b, _, _ = step_matrix_param(w, g, OptimizerState.initial(w, need_v), kind, off)
        assert np.array_equal(a, b), token


def test_fan_scale_all_extends_to_every_compressing_exponent():
    rng = np.random.default_rng(6)
    w = np.zeros((64, 16))
    g = rng.standard_normal((64, 16))
    every = HyperParams(lr_mat=0.1, fan_scaling_all=True)
    off = HyperParams(lr_mat=0.1, fan_scaling=False, fan_scaling_all=True)
    for token in ("msgds", "msgdq", "msgdz", "adams", "adamq", "adamz"):
        kind = parse_optimizer(token)
        need_v = kind.base is InputKind.RMS_NORMALIZED
        a, _, _ = step_matrix_param(w, g, OptimizerState.initial(w, need_v), kind, every)
        b, _, _ = step_matrix_param(w, g, OptimizerState.initial(w, need_v), kind, off)
        assert np.array_equal(a, 2.0 * b), token
    # the identity exponent never gets the factor, and fan_scaling=False
    # wins over fan_scaling_all=True
    for token in ("msgd", "adam"):
        kind = parse_optimizer(token)
        need_v = kind.base is InputKind.RMS_NORMALIZED
        a, _, _ = step_matrix_param(w, g, OptimizerState.initial(w, need_v), kind, every)
        b, _, _ = step_matrix_param(w, g, OptimizerState.initial(w, need_v), kind,
                                    HyperParams(lr_mat=0.1, fan_scaling=False))
        assert np.array_equal(a, b), token


def test_zero_raw_input_short_circuits_spectral_work():
    w = np.ones((4, 4))
    g = np.zeros((4, 4))
    hp = HyperParams(lr_mat=0.5)
    for token in ("msgds", "msgdz", "adamq"):
        kind = parse_optimizer(token)
        need_v = kind.base is InputKind.RMS_NORMALIZED
        new_w, state, diag = step_matrix_param(w, g, OptimizerState.initial(w, need_v),
                                               kind, hp)
        assert np.array_equal(new_w, w), token
        assert diag is None, token


def test_spectral_step_reports_kernel_diagnostics():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((8, 5))
    g = rng.standard_normal((8, 5))
    hp = HyperParams(lr_mat=0.1)
    _, _, diag = step_matrix_param(w, g, OptimizerState.initial(w, False),
                                   parse_optimizer("msgds"), hp)
    assert diag is not None and diag.iterations_run > 0


def test_a_named_kernel_failure_keeps_its_diagnostics():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((128, 32)) @ rng.standard_normal((32, 128))
    w = np.zeros_like(g)
    args = (w, g, OptimizerState.initial(w, False), parse_optimizer("msgdq"),
            HyperParams(lr_mat=0.1, spectral_iters=60))
    with pytest.raises(KernelDivergenceError) as unnamed:
        step_matrix_param(*args)
    with pytest.raises(KernelDivergenceError, match="^parameter 'W1': spectral transform p=0.25: "
                       ) as named:
        step_matrix_param(*args, param_name="W1")
    assert named.value.diagnostics is named.value.__cause__.diagnostics
    assert named.value.diagnostics == unnamed.value.diagnostics


def test_zero_exponent_step_ignores_gradient_scale():
    # muon's update depends on the momentum direction only, so scaling the
    # gradient by a constant moves nothing (up to kernel tolerance)
    rng = np.random.default_rng(8)
    g = rng.standard_normal((10, 6))
    w = np.zeros((10, 6))
    hp = HyperParams(lr_mat=0.1)
    a, _, _ = step_matrix_param(w, g, OptimizerState.initial(w, False), MUON, hp)
    b, _, _ = step_matrix_param(w, 137.0 * g, OptimizerState.initial(w, False), MUON, hp)
    assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(a)


def test_matrix_step_rejects_vector_shapes():
    hp = HyperParams(lr_mat=0.1)
    w = np.ones((1, 5))
    with pytest.raises(RoutingError, match="'w1'"):
        step_matrix_param(w, w, OptimizerState.initial(w, False),
                          parse_optimizer("msgd"), hp, param_name="w1")


def test_matrix_step_does_not_mutate_inputs():
    rng = np.random.default_rng(9)
    w = rng.standard_normal((4, 4))
    g = rng.standard_normal((4, 4))
    w0, g0 = w.copy(), g.copy()
    state = OptimizerState.initial(w, True)
    step_matrix_param(w, g, state, parse_optimizer("adams"), HyperParams(lr_mat=0.1))
    assert np.array_equal(w, w0)
    assert np.array_equal(g, g0)
    assert not state.m.any()


# --- vector steps -----------------------------------------------------------


def test_vector_step_first_update_matches_hand_formula():
    rng = np.random.default_rng(10)
    w = rng.standard_normal(7)
    g = rng.standard_normal(7)
    hp = HyperParams(lr_mat=0.1, lr_vec=3e-4)
    new_w, state = step_vector_param(w, g, OptimizerState.initial(w, True), hp)
    m = (1.0 - hp.beta1) * g
    v = (1.0 - hp.beta2) * (g * g)
    assert np.array_equal(new_w, w - hp.lr_vec * (m / (np.sqrt(v) + hp.eps)))
    assert np.array_equal(state.m, m) and np.array_equal(state.v, v)


def test_vector_step_zero_gradient_leaves_parameter_alone():
    w = np.arange(5, dtype=np.float64)
    hp = HyperParams(lr_mat=0.1)
    new_w, _ = step_vector_param(w, np.zeros(5), OptimizerState.initial(w, True), hp)
    assert np.array_equal(new_w, w)


def test_vector_step_rejects_true_matrices():
    hp = HyperParams(lr_mat=0.1)
    w = np.ones((3, 4))
    with pytest.raises(RoutingError):
        step_vector_param(w, w, OptimizerState.initial(w, True), hp)
    # unit dimensions are still vectors
    for shape in ((4,), (4, 1), (1, 4)):
        v = np.ones(shape)
        step_vector_param(v, v, OptimizerState.initial(v, True), hp)


def test_vector_rule_agrees_with_elementwise_matrix_route():
    # stacking a vector into two identical rows and running the adam matrix
    # rule at the vector rate must reproduce the vector step exactly: the rms
    # rule is elementwise so the rows never interact
    rng = np.random.default_rng(11)
    w = rng.standard_normal(9)
    g = rng.standard_normal(9)
    hp = HyperParams(lr_mat=3e-4, lr_vec=3e-4)
    vec_w, _ = step_vector_param(w, g, OptimizerState.initial(w, True), hp)
    stacked_w = np.vstack([w, w])
    stacked_g = np.vstack([g, g])
    mat_w, _, _ = step_matrix_param(stacked_w, stacked_g,
                                    OptimizerState.initial(stacked_w, True),
                                    parse_optimizer("adam"), hp)
    assert np.array_equal(mat_w[0], vec_w)
    assert np.array_equal(mat_w[1], vec_w)
