"""Sweep refinement, stop rule, and stability classification."""

import numpy as np
import pytest

from specopt.errors import ConfigError
from specopt.optim import HyperParams, parse_optimizer
from specopt.sweep import (
    StabilityProfile,
    SweepPlan,
    SweepReport,
    TrialResult,
    classify_stability,
    run_sweep,
)
from specopt.train import DIVERGED, EvalRow, RunRecord, TrainConfig


def quick_config(**overrides):
    base = dict(
        task="matreg",
        optimizer=parse_optimizer("adam"),
        hp=HyperParams(lr_mat=0.01),
        total_steps=120,
        warmup_steps=10,
        batch_size=40,
        eval_every=60,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def stub_trial(lr, eval_loss=None, token="adam"):
    """A TrialResult without running anything; eval_loss None means diverged."""
    rec = RunRecord(config_digest="stub")
    if eval_loss is None:
        rec.outcome = DIVERGED
        rec.diverged_step = 1
    else:
        rec.rows.append(EvalRow(0, eval_loss, eval_loss, 0.0))
    return TrialResult(parse_optimizer(token), lr, rec)


# --- plan validation --------------------------------------------------------


def test_plan_validation():
    with pytest.raises(ConfigError):
        SweepPlan(coarse_grid=())
    with pytest.raises(ConfigError):
        SweepPlan(coarse_grid=(0.0, 0.1))
    with pytest.raises(ConfigError):
        SweepPlan(coarse_grid=(0.1, 0.01))
    with pytest.raises(ConfigError):
        SweepPlan(coarse_grid=(0.1,), refine_factor_grid=())
    with pytest.raises(ConfigError):
        SweepPlan(coarse_grid=(0.1,), refine_factor_grid=(2.0, -0.5))
    with pytest.raises(ConfigError):
        SweepPlan(coarse_grid=(0.1,), max_fine_rounds=-1)
    plan = SweepPlan(coarse_grid=(0.01, 0.1))
    assert plan.refine_factor_grid == (0.5, 0.75, 1.5, 2.0)
    assert plan.max_fine_rounds == 8


def test_plan_rejects_a_repeated_lr_or_factor():
    # Either would run the same trial twice: lr_grid 0.1,0.1,1 with factors
    # 0.5,0.5 used to make five runs for three trials.
    with pytest.raises(ConfigError, match="strictly ascending"):
        SweepPlan(coarse_grid=(0.1, 0.1, 1.0))
    with pytest.raises(ConfigError, match="repeat a factor"):
        SweepPlan(coarse_grid=(0.1, 1.0), refine_factor_grid=(0.5, 0.5))


# --- trial ranking ----------------------------------------------------------


def test_diverged_trials_sort_after_every_completed_trial():
    assert stub_trial(0.1, None).eval_loss == float("inf")
    assert stub_trial(0.1, 123.0).eval_loss == 123.0


def test_report_best_breaks_ties_toward_smaller_lr_then_token():
    report = SweepReport()
    report.best_by_optimizer["msgd"] = stub_trial(0.2, 1.0, "msgd")
    report.best_by_optimizer["adam"] = stub_trial(0.1, 1.0, "adam")
    assert report.best.lr == 0.1
    report.best_by_optimizer["adam"] = stub_trial(0.2, 1.0, "adam")
    assert report.best.optimizer.token == "adam"
    report.best_by_optimizer = {"adam": None}
    assert report.best is None


# --- stability classification ----------------------------------------------


def test_classify_stability_five_point_mixed_profile():
    trials = [
        stub_trial(0.001, None),
        stub_trial(0.01, 0.5),
        stub_trial(0.1, 0.2),
        stub_trial(1.0, 0.9),
        stub_trial(10.0, None),
    ]
    profile = classify_stability(trials)
    assert profile.labels == [
        (0.001, "diverged"),
        (0.01, "stable"),
        (0.1, "stable"),
        (1.0, "stable"),
        (10.0, "diverged"),
    ]
    assert profile.best_lr == 0.1
    assert profile.span_range == (0.01, 1.0)
    assert abs(profile.span_decades - 2.0) < 1e-12


def test_classify_stability_island_around_best():
    trials = [
        stub_trial(0.001, 0.3),
        stub_trial(0.01, None),
        stub_trial(0.1, 0.2),
        stub_trial(1.0, None),
    ]
    profile = classify_stability(trials)
    assert profile.best_lr == 0.1
    assert profile.span_range == (0.1, 0.1)
    assert profile.span_decades == 0.0


def test_classify_stability_with_no_survivors():
    profile = classify_stability([stub_trial(0.1, None), stub_trial(1.0, None)])
    assert profile.best_lr is None
    assert profile.span_range is None
    assert profile.span_decades == 0.0
    assert all(label == "diverged" for _, label in profile.labels)


def test_classify_stability_breaks_eval_ties_toward_smaller_lr():
    profile = classify_stability([stub_trial(0.1, 0.2), stub_trial(0.2, 0.2)])
    assert profile.best_lr == 0.1


# --- sweeping ---------------------------------------------------------------


def test_single_point_grid_with_no_refinement():
    plan = SweepPlan(coarse_grid=(0.01,), max_fine_rounds=0)
    report = run_sweep(quick_config(), plan, [parse_optimizer("adam")])
    assert len(report.trials) == 1
    assert report.best_by_optimizer["adam"].lr == 0.01
    assert report.trials[0].completed


def test_refinement_stops_once_the_incumbent_is_bracketed():
    # the coarse grid tops out two decades below the good region, so the
    # refinement has to climb; it stops at the first incumbent that strictly
    # beats both neighbours
    plan = SweepPlan(coarse_grid=(0.001, 0.01, 0.1))
    report = run_sweep(quick_config(), plan, [parse_optimizer("adam")])
    lrs = [t.lr for t in report.trials]
    assert lrs == sorted(lrs)
    assert len(report.trials) == 13
    best = report.best_by_optimizer["adam"]
    assert best is not None and abs(best.lr - 1.2) < 1e-12
    below = max((t for t in report.trials if t.lr < best.lr), key=lambda t: t.lr)
    above = min((t for t in report.trials if t.lr > best.lr), key=lambda t: t.lr)
    assert best.eval_loss < below.eval_loss
    assert best.eval_loss < above.eval_loss


def test_sweep_reports_all_diverged():
    plan = SweepPlan(coarse_grid=(1e6,))
    report = run_sweep(quick_config(optimizer=parse_optimizer("msgd")), plan,
                       [parse_optimizer("msgd")])
    assert report.all_diverged
    assert report.best is None
    assert report.best_by_optimizer["msgd"] is None
    assert len(report.trials) == 1


def test_sweep_is_deterministic():
    plan = SweepPlan(coarse_grid=(0.01, 0.1), max_fine_rounds=1)
    a = run_sweep(quick_config(), plan, [parse_optimizer("adam")])
    b = run_sweep(quick_config(), plan, [parse_optimizer("adam")])
    assert [(t.lr, t.eval_loss) for t in a.trials] == [(t.lr, t.eval_loss) for t in b.trials]


def test_sweep_over_two_optimizers_keeps_them_separate():
    plan = SweepPlan(coarse_grid=(0.01, 0.1), max_fine_rounds=1)
    kinds = [parse_optimizer("msgd"), parse_optimizer("adam")]
    report = run_sweep(quick_config(), plan, kinds)
    assert set(report.best_by_optimizer) == {"msgd", "adam"}
    tokens = [t.optimizer.token for t in report.trials]
    switch = tokens.index("adam")
    assert all(tok == "msgd" for tok in tokens[:switch])
    assert all(tok == "adam" for tok in tokens[switch:])
    assert report.best is not None


def test_sweep_requires_an_optimizer():
    with pytest.raises(ConfigError):
        run_sweep(quick_config(), SweepPlan(coarse_grid=(0.1,)), [])
