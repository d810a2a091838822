"""Two-stage learning-rate sweeps and stability classification.

Stage one runs a coarse logarithmic grid per optimizer. Stage two refines:
each round multiplies the incumbent (best completed) learning rate by the
refine factors, runs whichever products are new, and stops once the
incumbent beats both of its immediate neighbours on the evaluated axis, or
after max_fine_rounds rounds. Diverged runs rank below every completed run.

Trials run serially and share the base seed, so every trial sees identical
data, initialization and batch order; only the optimizer and peak learning
rate differ.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .optim import OptimizerKind
from .train import RunRecord, TrainConfig, run_training


@dataclass(frozen=True)
class SweepPlan:
    coarse_grid: tuple[float, ...]
    refine_factor_grid: tuple[float, ...] = (0.5, 0.75, 1.5, 2.0)
    max_fine_rounds: int = 8

    def __post_init__(self):
        if not self.coarse_grid:
            raise ConfigError("coarse_grid must not be empty")
        if not all(math.isfinite(lr) and lr > 0 for lr in self.coarse_grid):
            raise ConfigError("coarse_grid entries must be finite and positive")
        # A repeated learning rate or factor would run the same trial twice.
        if any(b <= a for a, b in zip(self.coarse_grid, self.coarse_grid[1:])):
            raise ConfigError("coarse_grid must be strictly ascending")
        if not self.refine_factor_grid or not all(
            math.isfinite(f) and f > 0 for f in self.refine_factor_grid
        ):
            raise ConfigError("refine_factor_grid must hold finite positive factors")
        if len(set(self.refine_factor_grid)) < len(self.refine_factor_grid):
            raise ConfigError("refine_factor_grid must not repeat a factor")
        if self.max_fine_rounds < 0:
            raise ConfigError("max_fine_rounds must be >= 0")


@dataclass
class TrialResult:
    optimizer: OptimizerKind
    lr: float
    record: RunRecord

    @property
    def completed(self) -> bool:
        return self.record.completed

    @property
    def eval_loss(self) -> float:
        """Final held-out loss; infinite for diverged trials so they sort last."""
        if not self.completed:
            return float("inf")
        return float(self.record.final_eval_loss)


@dataclass
class SweepReport:
    trials: list[TrialResult] = field(default_factory=list)
    best_by_optimizer: dict[str, TrialResult | None] = field(default_factory=dict)

    @property
    def best(self) -> TrialResult | None:
        candidates = [t for t in self.best_by_optimizer.values() if t is not None]
        if not candidates:
            return None
        return min(candidates, key=lambda t: (t.eval_loss, t.lr, t.optimizer.token))

    @property
    def all_diverged(self) -> bool:
        return all(not t.completed for t in self.trials)


def _best_trial(trials: Iterable[TrialResult]) -> TrialResult | None:
    completed = [t for t in trials if t.completed]
    if not completed:
        return None
    return min(completed, key=lambda t: (t.eval_loss, t.lr))


def _beats_neighbors(trials: dict[float, TrialResult], incumbent: TrialResult) -> bool:
    lrs = sorted(trials)
    idx = lrs.index(incumbent.lr)
    if idx == 0 or idx == len(lrs) - 1:
        return False  # not bracketed yet
    left = trials[lrs[idx - 1]]
    right = trials[lrs[idx + 1]]
    return incumbent.eval_loss < left.eval_loss and incumbent.eval_loss < right.eval_loss


def run_sweep(
    base_cfg: TrainConfig,
    plan: SweepPlan,
    optimizers: list[OptimizerKind] | tuple[OptimizerKind, ...],
) -> SweepReport:
    if not optimizers:
        raise ConfigError("sweep needs at least one optimizer")
    # As in SweepPlan: a repeated optimizer would run every trial twice.
    for i, kind in enumerate(optimizers):
        if kind in optimizers[:i]:
            raise ConfigError(f"sweep names optimizer {kind.describe()} twice")
    report = SweepReport()
    for kind in optimizers:
        trials: dict[float, TrialResult] = {}

        def run_one(lr: float) -> None:
            cfg = replace(base_cfg, optimizer=kind, hp=replace(base_cfg.hp, lr_mat=lr))
            trials[lr] = TrialResult(kind, lr, run_training(cfg))

        for lr in plan.coarse_grid:
            run_one(lr)
        incumbent = _best_trial(trials.values())
        rounds = 0
        while incumbent is not None and rounds < plan.max_fine_rounds:
            if _beats_neighbors(trials, incumbent):
                break
            fresh = sorted(
                lr for lr in (incumbent.lr * f for f in plan.refine_factor_grid)
                if lr not in trials
            )
            if not fresh:
                break
            for lr in fresh:
                run_one(lr)
            incumbent = _best_trial(trials.values())
            rounds += 1

        report.trials.extend(trials[lr] for lr in sorted(trials))
        report.best_by_optimizer[kind.token] = incumbent
    return report


@dataclass
class StabilityProfile:
    """Per-learning-rate labels plus the stable span around the best run.

    labels pairs each learning rate with "stable" or "diverged" in
    ascending-lr order. The span is the contiguous stable region containing
    the best run, measured in decades (log10 of the ratio of its
    endpoints); no completed run means an empty span.
    """

    labels: list[tuple[float, str]]
    span_decades: float
    span_range: tuple[float, float] | None
    best_lr: float | None


def classify_stability(trials: list[TrialResult]) -> StabilityProfile:
    ordered = sorted(trials, key=lambda t: t.lr)
    labels = [(t.lr, "stable" if t.completed else "diverged") for t in ordered]
    best = _best_trial(ordered)
    if best is None:
        return StabilityProfile(labels, 0.0, None, None)
    idx = next(i for i, t in enumerate(ordered) if t.lr == best.lr)
    lo = idx
    while lo > 0 and ordered[lo - 1].completed:
        lo -= 1
    hi = idx
    while hi < len(ordered) - 1 and ordered[hi + 1].completed:
        hi += 1
    span_range = (ordered[lo].lr, ordered[hi].lr)
    span = float(np.log10(span_range[1] / span_range[0]))
    return StabilityProfile(labels, span, span_range, best.lr)
