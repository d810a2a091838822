"""The eight spectral optimizers over matrix parameters.

An optimizer is a pair (input kind, spectral exponent). The input kind
builds the raw update from exponential moving averages of the gradient:

    momentum        O = M_t
    rms-normalized  O = M_t / (sqrt(V_t) + eps)

with M_t = beta1 M_{t-1} + (1 - beta1) G_t and
V_t = beta2 V_{t-1} + (1 - beta2) G_t^2, no bias correction. The spectral
exponent then reshapes the update's singular values before the parameter
step w' = w - lr * scale * transform(O). Suffixes S, Q, Z mark exponents
1/2, 1/4 and 0; no suffix means the identity exponent, so "msgd" and "adam"
are the familiar baselines and "msgdz" is better known as muon.

Vector-shaped parameters never see a spectral transform: they always take a
plain rms-normalized step at their own fixed learning rate.

All step functions are pure: they return fresh arrays and never mutate
their inputs, which keeps replays bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dense import Matrix
from .errors import ConfigError, PoisonedGradientError, RoutingError, ToolkitError, tagged
from .kernels import KernelDiagnostics, SpectralExponent, spectral_transform


class InputKind(Enum):
    MOMENTUM = "momentum"
    RMS_NORMALIZED = "rms"


_BASE_NAMES = {InputKind.MOMENTUM: "mSGD", InputKind.RMS_NORMALIZED: "Adam"}


@dataclass(frozen=True)
class OptimizerKind:
    base: InputKind
    exponent: SpectralExponent

    @property
    def name(self) -> str:
        """Display name, e.g. mSGDS or AdamQ."""
        return _BASE_NAMES[self.base] + self.exponent.suffix

    @property
    def token(self) -> str:
        """Lowercase command-line token, e.g. msgds or adamq."""
        return self.name.lower()

    def describe(self) -> str:
        """Token plus the common alias where one exists."""
        if self == MUON:
            return f"{self.token} (muon)"
        return self.token


ALL_OPTIMIZERS: tuple[OptimizerKind, ...] = tuple(
    OptimizerKind(base, exp)
    for base in (InputKind.MOMENTUM, InputKind.RMS_NORMALIZED)
    for exp in (SpectralExponent.ONE, SpectralExponent.HALF,
                SpectralExponent.QUARTER, SpectralExponent.ZERO)
)

MUON = OptimizerKind(InputKind.MOMENTUM, SpectralExponent.ZERO)

_TOKEN_TABLE = {kind.token: kind for kind in ALL_OPTIMIZERS}
_TOKEN_TABLE["muon"] = MUON


def parse_optimizer(text: str) -> OptimizerKind:
    key = text.strip().lower()
    if key not in _TOKEN_TABLE:
        valid = ", ".join(k.token for k in ALL_OPTIMIZERS)
        raise ConfigError(f"unknown optimizer {text!r}; valid names: {valid}, muon")
    return _TOKEN_TABLE[key]


@dataclass(frozen=True)
class HyperParams:
    """Step-rule constants shared by every optimizer instance.

    spectral_iters = None lets each kernel use its own default iteration
    count. fan_scaling applies sqrt(fan_out / fan_in) to the update, by
    default only for the momentum-input zero-exponent optimizer (muon, the
    convention of its reference setup); fan_scaling_all extends it to every
    compressing exponent for ablations. fan_out is the row count and fan_in
    the column count of the parameter as stored.
    """

    lr_mat: float
    lr_vec: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    spectral_iters: int | None = None
    fan_scaling: bool = True
    fan_scaling_all: bool = False

    def __post_init__(self):
        if not 0.0 <= self.beta1 < 1.0:
            raise ConfigError(f"beta1 must lie in [0, 1), got {self.beta1}")
        if not 0.0 <= self.beta2 < 1.0:
            raise ConfigError(f"beta2 must lie in [0, 1), got {self.beta2}")
        if not (math.isfinite(self.eps) and self.eps >= 0.0):
            raise ConfigError(f"eps must be finite and >= 0, got {self.eps}")
        for name, lr in (("lr_mat", self.lr_mat), ("lr_vec", self.lr_vec)):
            if not (math.isfinite(lr) and lr >= 0.0):
                raise ConfigError(f"{name} must be finite and >= 0, got {lr}")
        if self.spectral_iters is not None and self.spectral_iters < 1:
            raise ConfigError(f"spectral_iters must be >= 1, got {self.spectral_iters}")


@dataclass
class OptimizerState:
    """Per-parameter moments. v is allocated only when the rule needs it."""

    m: np.ndarray
    v: np.ndarray | None
    t: int = 0

    @classmethod
    def initial(cls, param: np.ndarray, need_v: bool) -> "OptimizerState":
        return cls(
            m=np.zeros_like(param),
            v=np.zeros_like(param) if need_v else None,
            t=0,
        )


def update_moments(
    state: OptimizerState,
    g: np.ndarray,
    hp: HyperParams,
    need_v: bool,
    param_name: str = "",
) -> OptimizerState:
    """Advance the moving averages by one gradient. Pure."""
    if not np.all(np.isfinite(g)):
        where = f" for parameter {param_name!r}" if param_name else ""
        raise PoisonedGradientError(f"gradient{where} contains NaN or Inf")
    m = hp.beta1 * state.m + (1.0 - hp.beta1) * g
    v = None
    if need_v:
        prev_v = state.v if state.v is not None else np.zeros_like(g)
        v = hp.beta2 * prev_v + (1.0 - hp.beta2) * (g * g)
    return OptimizerState(m=m, v=v, t=state.t + 1)


def make_input(state: OptimizerState, kind: InputKind, hp: HyperParams) -> np.ndarray:
    """Raw update matrix before any spectral transform."""
    if kind is InputKind.MOMENTUM:
        return state.m
    if state.v is None:
        raise RoutingError("rms-normalized input needs second moments, none tracked")
    with np.errstate(divide="ignore", invalid="ignore"):
        return state.m / (np.sqrt(state.v) + hp.eps)


def _fan_scale(shape: tuple[int, int], kind: OptimizerKind, hp: HyperParams) -> float:
    if not hp.fan_scaling:
        return 1.0
    if hp.fan_scaling_all:
        applies = kind.exponent is not SpectralExponent.ONE
    else:
        applies = kind == MUON
    if not applies:
        return 1.0
    rows, cols = shape
    return float(np.sqrt(rows / cols))


def step_matrix_param(
    w: Matrix,
    g: Matrix,
    state: OptimizerState,
    kind: OptimizerKind,
    hp: HyperParams,
    param_name: str = "",
) -> tuple[Matrix, OptimizerState, KernelDiagnostics | None]:
    """One optimizer step on a genuinely matrix-shaped parameter.

    Returns (new parameter, new state, kernel diagnostics or None). The
    identity exponent performs no kernel work; a spectral input that is
    exactly zero short-circuits to a zero update, since a zero matrix has no
    polar factor and the correct step is no motion.
    """
    if w.ndim != 2 or min(w.shape) < 2:
        raise RoutingError(
            f"matrix step needs both dims > 1, got shape {w.shape}"
            + (f" for parameter {param_name!r}" if param_name else "")
        )
    new_state = update_moments(state, g, hp, kind.base is InputKind.RMS_NORMALIZED, param_name)
    raw = make_input(new_state, kind.base, hp)
    diag = None
    if kind.exponent is SpectralExponent.ONE:
        delta = raw
    elif not raw.any():
        delta = np.zeros_like(raw)
    else:
        try:
            delta, diag = spectral_transform(raw, kind.exponent, hp.spectral_iters)
        except ToolkitError as exc:
            if param_name:
                raise tagged(exc, f"parameter {param_name!r}") from exc
            raise
    scale = _fan_scale(w.shape, kind, hp)
    return w - (hp.lr_mat * scale) * delta, new_state, diag


def step_vector_param(
    w: np.ndarray,
    g: np.ndarray,
    state: OptimizerState,
    hp: HyperParams,
    param_name: str = "",
) -> tuple[np.ndarray, OptimizerState]:
    """Plain rms-normalized step at lr_vec for vector-shaped parameters."""
    if w.ndim > 2 or (w.ndim == 2 and min(w.shape) > 1):
        raise RoutingError(
            f"vector step needs a unit dimension, got shape {w.shape}"
            + (f" for parameter {param_name!r}" if param_name else "")
        )
    new_state = update_moments(state, g, hp, need_v=True, param_name=param_name)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = new_state.m / (np.sqrt(new_state.v) + hp.eps)
    return w - hp.lr_vec * delta, new_state
