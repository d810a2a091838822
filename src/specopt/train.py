"""Deterministic training loop: warmup plus cosine decay, divergence
detection, replayable run records.

A run is fully determined by its TrainConfig. The field table
CONFIG_FIELDS is the one list of config keys: each key's attribute, text
parser, canonical rendering and the word that stands for None. The
canonical rendering of a config (sorted "key = value" lines) is hashed into
a digest that every output artifact embeds, and replaying the same config
bit-reproduces every recorded row on the same platform and BLAS build (a
run pins one BLAS thread per call).

Every run opens one dense.Lane, "specopt-step", before the step-0 row and
joins it when the run ends; dense.Lane decides whether it has a thread
(two or more CPUs) and starts it at the first push, so a run that pushes
nothing (every matreg run) starts none. With a thread it is dense.helper()
inside the run, and takes three kinds of call, each read back as its Call:
- Matrix steps (see _offloaded and _step_params). The steps share nothing
  within a step, so when the exponent is not one and the run has two or
  more matrix parameters, the lane steps all but the costliest of them
  while the calling thread steps that one.
- X folds. The calling thread's inverse-root passes from 128 wide queue
  their folds on the lane behind those steps.
- Eval rows. A whole-split loss of two full row blocks or more (charlm's
  train_loss) runs half of its blocks on the lane.
On one CPU every call runs on the calling thread. At most two threads
make BLAS calls at once. Each step and each block is the same computation
on the same inputs whichever thread runs it, and the block sums are added
in one order, so a run's rows do not depend on the CPU count.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable, Mapping
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any, NamedTuple

import numpy as np

from . import dense
from .errors import ConfigError, ToolkitError
from .kernels import SpectralExponent
from .optim import (
    HyperParams,
    InputKind,
    OptimizerKind,
    OptimizerState,
    is_matrix_param,
    parse_optimizer,
    step_matrix_param,
    step_vector_param,
)
from .tasks import make_task, seeded_rng

TOOLKIT_VERSION = "0.1.0"

COMPLETED = "completed"
DIVERGED = "diverged"


@dataclass(frozen=True)
class TrainConfig:
    task: str
    optimizer: OptimizerKind
    hp: HyperParams
    total_steps: int = 2000
    warmup_steps: int = 100
    batch_size: int = 64
    eval_every: int = 100
    seed: int = 0
    divergence_threshold: float | None = None  # None: 10x the initial loss
    corpus_path: str | None = None

    def __post_init__(self):
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {self.total_steps}")
        if self.warmup_steps < 1:
            raise ConfigError(f"warmup_steps must be >= 1, got {self.warmup_steps}")
        if self.warmup_steps >= self.total_steps:
            raise ConfigError(
                f"warmup_steps {self.warmup_steps} must be < total_steps {self.total_steps}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        threshold = self.divergence_threshold
        if threshold is not None and not (math.isfinite(threshold) and threshold > 0):
            raise ConfigError(
                f"divergence_threshold must be finite and positive when set, got {threshold}"
            )


def reject_unknown_keys(mapping: Mapping[str, str], valid: frozenset[str]) -> None:
    unknown = sorted(set(mapping) - set(valid))
    if unknown:
        raise ConfigError(
            f"unknown config keys: {', '.join(unknown)}; valid keys: "
            + ", ".join(sorted(valid))
        )


def parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def parse_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {text!r}")
    return value


def _parse_bool(key: str, text: str) -> bool:
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ConfigError(f"{key}: expected true or false, got {text!r}")


class _Codec(NamedTuple):
    parse: Callable[[str, str], Any]  # (key, text) -> value; raises ConfigError
    render: Callable[[Any], str]


_TEXT = _Codec(lambda key, text: text, str)
_INT = _Codec(parse_int, str)
_FLOAT = _Codec(parse_float, repr)
_BOOL = _Codec(_parse_bool, lambda value: "true" if value else "false")
_OPTIMIZER = _Codec(lambda key, text: parse_optimizer(text), lambda kind: kind.token)


@dataclass(frozen=True)
class ConfigField:
    """One config key: the attribute it sets and how its value reads and renders.

    The default is the owning dataclass's; a key whose attribute has no
    default is required. ``none_word`` is the text that stands for None.
    """

    key: str
    owner: type  # TrainConfig or HyperParams
    codec: _Codec
    none_word: str | None = None
    attribute: str | None = None  # None: same as the key

    def __post_init__(self):
        if self.attribute is None:
            object.__setattr__(self, "attribute", self.key)

    @property
    def required(self) -> bool:
        (spec,) = [f for f in fields(self.owner) if f.name == self.attribute]
        return spec.default is MISSING

    def parse(self, text: str):
        return None if text == self.none_word else self.codec.parse(self.key, text)

    def render(self, value) -> str:
        return self.none_word if value is None else self.codec.render(value)


CONFIG_FIELDS: tuple[ConfigField, ...] = (
    ConfigField("task", TrainConfig, _TEXT),
    ConfigField("optimizer", TrainConfig, _OPTIMIZER),
    ConfigField("lr_mat", HyperParams, _FLOAT),
    ConfigField("lr_vec", HyperParams, _FLOAT),
    ConfigField("beta1", HyperParams, _FLOAT),
    ConfigField("beta2", HyperParams, _FLOAT),
    ConfigField("eps", HyperParams, _FLOAT),
    ConfigField("spectral_iters", HyperParams, _INT, "default"),
    ConfigField("fan_scaling", HyperParams, _BOOL),
    ConfigField("fan_scaling_all", HyperParams, _BOOL),
    ConfigField("total_steps", TrainConfig, _INT),
    ConfigField("warmup_steps", TrainConfig, _INT),
    ConfigField("batch_size", TrainConfig, _INT),
    ConfigField("eval_every", TrainConfig, _INT),
    ConfigField("seed", TrainConfig, _INT),
    ConfigField("divergence_threshold", TrainConfig, _FLOAT, "auto"),
    ConfigField("corpus", TrainConfig, _TEXT, "builtin", attribute="corpus_path"),
)
CONFIG_KEYS = frozenset(f.key for f in CONFIG_FIELDS)


def config_from_mapping(mapping: Mapping[str, str], **fallbacks) -> TrainConfig:
    """Validate "key = value" text into a TrainConfig.

    Keys the mapping leaves out take the dataclass defaults, or the
    ``fallbacks`` value under the field's attribute name when one is given.
    Unknown keys and missing required keys raise ConfigError.
    """
    reject_unknown_keys(mapping, CONFIG_KEYS)
    for f in CONFIG_FIELDS:
        if f.required and f.key not in mapping and f.attribute not in fallbacks:
            raise ConfigError(f"config is missing required key {f.key!r}")
    kwargs: dict[type, dict] = {TrainConfig: {}, HyperParams: {}}
    for f in CONFIG_FIELDS:
        if f.key in mapping:
            kwargs[f.owner][f.attribute] = f.parse(mapping[f.key])
        elif f.attribute in fallbacks:
            kwargs[f.owner][f.attribute] = fallbacks[f.attribute]
    return TrainConfig(hp=HyperParams(**kwargs[HyperParams]), **kwargs[TrainConfig])


def canonical_config_text(cfg: TrainConfig) -> str:
    """Sorted key = value rendering; the digest input and replay format."""
    owners = {TrainConfig: cfg, HyperParams: cfg.hp}
    lines = {f.key: f.render(getattr(owners[f.owner], f.attribute)) for f in CONFIG_FIELDS}
    return "".join(f"{k} = {lines[k]}\n" for k in sorted(lines))


def text_digest(text: str) -> str:
    """SHA-256 of a canonical config text; names runs and their artifacts."""
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def config_digest(cfg: TrainConfig) -> str:
    return text_digest(canonical_config_text(cfg))


def lr_at(cfg: TrainConfig, step: int) -> float:
    """Effective matrix learning rate at a 1-based step.

    Linear ramp to the peak across the warmup, then a cosine that lands at
    10 percent of the peak on the final step. The vector learning rate does
    not follow this schedule.
    """
    peak = cfg.hp.lr_mat
    if step <= cfg.warmup_steps:
        return peak * step / cfg.warmup_steps
    frac = (step - cfg.warmup_steps) / (cfg.total_steps - cfg.warmup_steps)
    return peak * (0.1 + 0.45 * (1.0 + np.cos(np.pi * frac)))


@dataclass
class EvalRow:
    step: int
    train_loss: float
    eval_loss: float
    lr_mat_effective: float


@dataclass
class RunRecord:
    config_digest: str
    rows: list[EvalRow] = field(default_factory=list)
    outcome: str = COMPLETED
    diverged_step: int | None = None

    @property
    def completed(self) -> bool:
        return self.outcome == COMPLETED

    @property
    def final_eval_loss(self) -> float:
        return self.rows[-1].eval_loss if self.rows else float("nan")

    def to_csv(self, optimizer_label: str | None = None) -> str:
        lines = [f"# config_digest={self.config_digest}", f"# version={TOOLKIT_VERSION}"]
        if optimizer_label:
            lines.append(f"# optimizer={optimizer_label}")
        lines.append(f"# outcome={self.outcome}")
        lines.append("step,train_loss,eval_loss,lr_mat_effective")
        for row in self.rows:
            lines.append(
                f"{row.step},{row.train_loss!r},{row.eval_loss!r},{row.lr_mat_effective!r}"
            )
        return "\n".join(lines) + "\n"


class _BatchStream:
    """Epoch-shuffled minibatch indices; reshuffles when a slice would wrap."""

    def __init__(self, num_train: int, batch_size: int, rng: np.random.Generator):
        self.n = num_train
        self.bs = min(batch_size, num_train)
        self.rng = rng
        self.perm = rng.permutation(num_train)
        self.pos = 0

    def next(self) -> np.ndarray:
        if self.pos + self.bs > self.n:
            self.perm = self.rng.permutation(self.n)
            self.pos = 0
        out = self.perm[self.pos:self.pos + self.bs]
        self.pos += self.bs
        return out


def _safe_loss(fn) -> float:
    try:
        value = fn()
    except (ToolkitError, FloatingPointError):
        return float("nan")
    return float(value)


def _offloaded(params: Mapping[str, np.ndarray], matrix_names: list[str],
               exponent: SpectralExponent) -> list[str]:
    """The matrix parameters a run's helper lane steps, in sorted order; []
    when no matrix step goes to it.

    Steps go to the lane when the exponent is not one (the identity runs no
    kernel) and the run has two or more matrix parameters; a run whose lane
    has no thread asks for none. The lane steps every matrix parameter but the
    costliest, which the calling thread steps. Every kernel product is
    n x n on a matrix's small side n, so a step costs about n cubed; ties go
    by name. Both built-in tasks need no more: on charlm W1 (128 wide)
    bounds the step while W2, the embedding and W1's folds fit beside it on
    the lane, and matreg has one matrix.
    """
    if exponent is SpectralExponent.ONE or len(matrix_names) < 2:
        return []
    costliest = min(matrix_names, key=lambda name: (-min(params[name].shape), name))
    return [name for name in matrix_names if name != costliest]


def _step_params(params, grads, states, matrix_names, helper, offloaded, optimizer, hp) -> None:
    """One step of every parameter, assigned in sorted name order, so a step
    that raises leaves the names before it stepped and the ones after it
    with their old values.

    Without offloaded names every step runs on the calling thread in that
    order. With them, the ``offloaded`` steps are pushed to ``helper`` first,
    then the other matrix steps run on the calling thread, their inverse-root
    passes folding X on the same lane behind those steps. Each matrix step
    is kept as its dense.Call and read at its name's turn, so the
    parameters end as in one serial pass.
    """
    def matrix_step(name):
        return step_matrix_param(params[name], grads[name], states[name],
                                 optimizer, hp, param_name=name)

    calls = {name: helper.push(matrix_step, name) for name in offloaded}
    if calls:
        calls.update((name, dense.INLINE.push(matrix_step, name))
                     for name in matrix_names if name not in calls)
    for name in sorted(params):
        if name in calls:
            params[name], states[name], _ = calls[name].result()
        elif name in matrix_names:
            params[name], states[name], _ = matrix_step(name)
        else:
            params[name], states[name] = step_vector_param(
                params[name], grads[name], states[name], hp, param_name=name,
            )


@dense.one_blas_thread()
def run_training(cfg: TrainConfig) -> RunRecord:
    """Execute one run and return its record.

    Divergence (non-finite loss, loss above the threshold, or a kernel/
    gradient error inside a step) ends the run with outcome "diverged" and
    a final row carrying the offending loss; it never raises. Its BLAS calls
    run on one thread (a count the caller's other threads share), restored
    on every exit once the run's lane, and its thread if it started one, is
    joined.
    """
    task = make_task(cfg.task, cfg.seed, cfg.corpus_path)
    params = task.init_params(seeded_rng(cfg.seed, 1))

    matrix_names = sorted(n for n, p in params.items() if is_matrix_param(p))
    need_v = cfg.optimizer.base is InputKind.RMS_NORMALIZED
    states = {
        name: OptimizerState.initial(p, need_v if name in matrix_names else True)
        for name, p in params.items()
    }

    with dense.Lane("specopt-step"):
        helper = dense.helper()
        offloaded = _offloaded(params, matrix_names, cfg.optimizer.exponent) if helper else []
        initial_loss = task.train_loss(params)
        threshold = cfg.divergence_threshold
        if threshold is None:
            threshold = 10.0 * initial_loss
        record = RunRecord(config_digest=config_digest(cfg))
        record.rows.append(EvalRow(0, initial_loss, task.eval_loss(params), 0.0))

        batches = _BatchStream(task.num_train, cfg.batch_size, seeded_rng(cfg.seed, 2))
        for step in range(1, cfg.total_steps + 1):
            lr_eff = float(lr_at(cfg, step))
            hp_step = replace(cfg.hp, lr_mat=lr_eff)
            indices = batches.next()
            diverged = False
            try:
                loss, grads = task.loss_and_grads(params, indices)
                if not np.isfinite(loss) or loss > threshold:
                    diverged = True
                else:
                    _step_params(params, grads, states, matrix_names, helper, offloaded,
                                 cfg.optimizer, hp_step)
            except ToolkitError:
                loss = float("nan")
                diverged = True
            if diverged:
                record.outcome = DIVERGED
                record.diverged_step = step
                record.rows.append(EvalRow(
                    step, float(loss), _safe_loss(lambda: task.eval_loss(params)), lr_eff,
                ))
                break
            if step % cfg.eval_every == 0 or step == cfg.total_steps:
                record.rows.append(EvalRow(
                    step, task.train_loss(params), task.eval_loss(params), lr_eff,
                ))
    return record
