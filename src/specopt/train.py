"""Deterministic training loop: warmup plus cosine decay, divergence
detection, replayable run records.

A run is fully determined by its TrainConfig. The canonical rendering of
that config (sorted "key = value" lines) is hashed into a digest that every
output artifact embeds, and replaying the same config bit-reproduces every
recorded row on the same platform. Wall time is kept on the record object
but never serialized, so output files stay byte-stable.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ToolkitError
from .optim import (
    HyperParams,
    InputKind,
    OptimizerKind,
    OptimizerState,
    step_matrix_param,
    step_vector_param,
)
from .tasks import make_task

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
        if self.divergence_threshold is not None and self.divergence_threshold <= 0:
            raise ConfigError("divergence_threshold must be positive when set")


def canonical_config_text(cfg: TrainConfig) -> str:
    """Sorted key = value rendering; the digest input and replay format."""
    items = {
        "task": cfg.task,
        "optimizer": cfg.optimizer.token,
        "lr_mat": repr(cfg.hp.lr_mat),
        "lr_vec": repr(cfg.hp.lr_vec),
        "beta1": repr(cfg.hp.beta1),
        "beta2": repr(cfg.hp.beta2),
        "eps": repr(cfg.hp.eps),
        "spectral_iters": "default" if cfg.hp.spectral_iters is None else str(cfg.hp.spectral_iters),
        "fan_scaling": "true" if cfg.hp.fan_scaling else "false",
        "fan_scaling_all": "true" if cfg.hp.fan_scaling_all else "false",
        "total_steps": str(cfg.total_steps),
        "warmup_steps": str(cfg.warmup_steps),
        "batch_size": str(cfg.batch_size),
        "eval_every": str(cfg.eval_every),
        "seed": str(cfg.seed),
        "divergence_threshold": (
            "auto" if cfg.divergence_threshold is None else repr(cfg.divergence_threshold)
        ),
        "corpus": "builtin" if cfg.corpus_path is None else str(cfg.corpus_path),
    }
    return "".join(f"{k} = {items[k]}\n" for k in sorted(items))


def config_digest(cfg: TrainConfig) -> str:
    return hashlib.sha256(canonical_config_text(cfg).encode("ascii")).hexdigest()


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
    wall_time: float = 0.0  # informational only; never serialized

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


def run_training(cfg: TrainConfig) -> RunRecord:
    """Execute one run and return its record.

    Divergence (non-finite loss, loss above the threshold, or a kernel/
    gradient error inside a step) ends the run with outcome "diverged" and
    a final row carrying the offending loss; it never raises.
    """
    start = time.perf_counter()
    task = make_task(cfg.task, cfg.seed, cfg.corpus_path)
    init_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 1])))
    batch_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 2])))
    params = task.init_params(init_rng)

    matrix_names = [n for n, p in params.items() if p.ndim == 2 and min(p.shape) > 1]
    need_v = cfg.optimizer.base is InputKind.RMS_NORMALIZED
    states = {
        name: OptimizerState.initial(p, need_v if name in matrix_names else True)
        for name, p in params.items()
    }

    initial_loss = task.train_loss(params)
    threshold = cfg.divergence_threshold
    if threshold is None:
        threshold = 10.0 * initial_loss
    record = RunRecord(config_digest=config_digest(cfg))
    record.rows.append(EvalRow(0, initial_loss, task.eval_loss(params), 0.0))

    batches = _BatchStream(task.num_train, cfg.batch_size, batch_rng)
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
                for name in sorted(params):
                    if name in matrix_names:
                        params[name], states[name], _ = step_matrix_param(
                            params[name], grads[name], states[name],
                            cfg.optimizer, hp_step, param_name=name,
                        )
                    else:
                        params[name], states[name] = step_vector_param(
                            params[name], grads[name], states[name],
                            hp_step, param_name=name,
                        )
        except ToolkitError:
            loss = float("nan")
            diverged = True
        if diverged:
            record.outcome = DIVERGED
            record.diverged_step = step
            record.rows.append(
                EvalRow(step, float(loss), _safe_loss(lambda: task.eval_loss(params)), lr_eff)
            )
            break
        if step % cfg.eval_every == 0 or step == cfg.total_steps:
            record.rows.append(
                EvalRow(step, task.train_loss(params), task.eval_loss(params), lr_eff)
            )
    record.wall_time = time.perf_counter() - start
    return record
