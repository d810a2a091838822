#!/usr/bin/env python3
"""specopt benchmark: training rounds, a learning-rate sweep and stiff kernels.

    python3 specbench/run.py --workload charlm-train --seed 0 --seconds 58 --trace 0

Each run is one process with one BLAS thread. It builds its inputs from
--seed, times two more cold set-ups in child processes (--setup-only), then
measures in rounds, at least one, until another round would overrun
--seconds. A round holds a block of every kind of timed operation, so every
metric is measured on every workload, plus the workload's extra blocks (see
ROUND_BLOCKS); the kinds are interleaved within a round and the order
rotates from round to round. Every timed metric is a sum of parts, each
part at the fastest of its samples over the run (see fast()). The last
stdout line is the result: {"correct", "attempted", "failed", "metrics"},
with the end-to-end metrics when --trace 0 and the per-layer metrics when
--trace 1. Everything else a run knows (machine facts, every sample, the
traced run's end-to-end figures, spans) goes to specbench/out/.

See specbench/README.md for the workloads, metrics and reference figures.
"""

import os

# One BLAS thread per process: measured equal or faster at these sizes, and
# it keeps a run on one core of the shared host. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time

_PROCESS_START = time.perf_counter()

import argparse
import ctypes
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"  # every run's full record; ignored by git
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np

from specopt import calibration, optim, synth, tasks, train
from specopt import sweep as sweep_module
from specopt.errors import ToolkitError
from specopt.kernels import SpectralExponent, spectral_transform
from specopt.optim import ALL_OPTIMIZERS, HyperParams, OptimizerState, parse_optimizer
from specopt.oracle import spectral_power_exact
from specopt.sweep import SweepPlan, run_sweep
from specopt.train import TrainConfig, run_training

from tracing import Stamps, Tracer

_IMPORT_S = time.perf_counter() - _PROCESS_START

WORKLOADS = ("charlm-train", "kernel-spectra")
POWERS = (SpectralExponent.HALF, SpectralExponent.QUARTER, SpectralExponent.ZERO)
ACCURACY = {SpectralExponent.HALF: calibration.REL_TOL_HALF,
            SpectralExponent.QUARTER: calibration.REL_TOL_QUARTER}
ORACLE_POWER = 0.5
ORACLE_TOL = 1e-10
PSD_TOL = 1e-9          # asymmetry and negative eigenvalues of O^T Z, relative
SVD_RANK_CUTOFF = 1e-10  # singular values below this share of the largest are zero

# Peak matrix learning rate per optimizer on charlm: each sits inside its
# stable region, and every one lowers the held-out loss over a 40-step run.
CHARLM_LR = {"msgd": 3.0, "msgds": 0.3, "msgdq": 0.1, "msgdz": 0.03,
             "adam": 0.003, "adams": 0.01, "adamq": 0.01, "adamz": 0.03}

# Blocks per round. Every kind is in every round, because every run reports
# every metric; the workload sets the mix. A round lasts about 12 s
# (charlm-train) or 15 s (kernel-spectra) on a quiet host, so a run holds
# two to four rounds, and each optimizer's charlm run and sweep, and each
# kernel call, is sampled that many times, minutes apart.
ROUND_BLOCKS = {"charlm-train": ("train", "sweep", "kernel", "kernel"),
                "kernel-spectra": ("train", "sweep") + ("kernel",) * 4}


@dataclass(frozen=True)
class Plan:
    # charlm runs have one eval row at step 0 and one at the end. step_ms
    # describes a run of step_ms_steps steps with those two rows: one row per
    # 80 steps, the share of the top-level README's example config (400
    # steps, eval_every 100).
    charlm_steps: int = 40
    charlm_warmup: int = 4
    step_ms_steps: int = 160
    # Nine decades from 1e-4 to 1e4 with the default refinement: 72 trials
    # (23 diverge), about 5k steps and 3.5 s at seed 0.
    sweep_steps: int = 100
    sweep_warmup: int = 10
    sweep_grid: tuple = tuple(10.0 ** k for k in range(-4, 5))
    spectrum_shapes: tuple = ((96, 16), (128, 128), (96, 128), (512, 256))
    conds: tuple = (1e2, 1e4, 1e6)
    rank_deficient: tuple = (128, 128, 64)
    capture_steps: int = 20
    oracle_shapes: tuple = ((20, 14), (96, 16), (64, 48))
    setup_repeats: int = 3


FULL = Plan()
# The self-test's size: same kernel and oracle inputs, short charlm runs, a
# three-point sweep of 100-step trials, one set-up.
TINY = Plan(charlm_steps=4, charlm_warmup=1, sweep_steps=100, sweep_warmup=10,
            sweep_grid=(1e-2, 1.0, 1e2), setup_repeats=1)


def round_ops(workload: str) -> list[tuple[str, str]]:
    """One round's operations: each kind's operations spread evenly over it."""
    zero, oracle = ("transform", SpectralExponent.ZERO.value), ("oracle", "all")
    blocks = {
        # One run_sweep call per optimizer: run_sweep sweeps each on its own,
        # so the eight calls run the trials of one eight-optimizer sweep.
        "train": [("train", k.token) for k in ALL_OPTIMIZERS],
        "sweep": [("sweep", k.token) for k in ALL_OPTIMIZERS],
        # The p = 0 pass is cheap (60 ms), so it runs twice.
        "kernel": [("transform", SpectralExponent.HALF.value), zero, oracle,
                   ("transform", SpectralExponent.QUARTER.value), zero],
    }
    names = ROUND_BLOCKS[workload]
    kinds = list(dict.fromkeys(names))
    placed = []
    for b, name in enumerate(kinds):
        ops = blocks[name] * names.count(name)
        offset = (b + 1) / (len(kinds) + 1)  # keeps kinds from landing on the same spot
        placed += [((j + offset) / len(ops), b, op) for j, op in enumerate(ops)]
    return [op for _, _, op in sorted(placed)]


# --- inputs -----------------------------------------------------------------


@dataclass
class KernelInput:
    label: str
    matrix: np.ndarray
    cond: float | None  # None: rank deficient or a captured update


def capture_updates(seed: int, steps: int) -> dict[str, np.ndarray]:
    """Raw adams updates of charlm's matrices after a short run."""
    task = tasks.make_task("charlm", seed)
    rng = np.random.default_rng([seed, 2])
    params = task.init_params(rng)
    kind = parse_optimizer("adams")
    hp = HyperParams(lr_mat=CHARLM_LR["adams"])
    states = {name: OptimizerState.initial(p, True) for name, p in params.items()}
    for _ in range(steps):
        _, grads = task.loss_and_grads(params, rng.choice(task.num_train, 64, replace=False))
        for name, p in params.items():
            if p.ndim == 2 and min(p.shape) > 1:
                params[name], states[name], _ = optim.step_matrix_param(
                    p, grads[name], states[name], kind, hp, name)
            else:
                params[name], states[name] = optim.step_vector_param(
                    p, grads[name], states[name], hp, name)
    return {name: optim.make_input(states[name], kind.base, hp)
            for name in ("embed", "W1", "W2")}


@dataclass
class World:
    kernel_inputs: list[KernelInput]
    oracle_inputs: list[np.ndarray]
    charlm: dict[str, TrainConfig]
    sweep_cfg: TrainConfig
    sweep_plan: SweepPlan


def build(plan: Plan, seed: int) -> World:
    """Inputs, configs and warm-up calls: what set-up time measures."""
    rng = np.random.default_rng([seed, 1])
    inputs = [KernelInput(f"{r}x{c}@{cond:.0e}", synth.spectrum_matrix(rng, r, c, cond), cond)
              for r, c in plan.spectrum_shapes for cond in plan.conds]
    r, c, rank = plan.rank_deficient
    inputs.append(KernelInput(f"{r}x{c}@rank{rank}",
                              rng.standard_normal((r, rank)) @ rng.standard_normal((rank, c)) / rank,
                              None))
    for name, update in capture_updates(seed, plan.capture_steps).items():
        inputs.append(KernelInput(f"adams.{name}", update, None))
    oracle_inputs = [synth.spectrum_matrix(rng, r, c, 1e2) for r, c in plan.oracle_shapes]
    charlm = {
        kind.token: TrainConfig(task="charlm", optimizer=kind,
                                hp=HyperParams(lr_mat=CHARLM_LR[kind.token]),
                                total_steps=plan.charlm_steps, warmup_steps=plan.charlm_warmup,
                                batch_size=64, eval_every=plan.charlm_steps, seed=seed)
        for kind in ALL_OPTIMIZERS
    }
    sweep_cfg = TrainConfig(task="matreg", optimizer=ALL_OPTIMIZERS[0],
                            hp=HyperParams(lr_mat=plan.sweep_grid[0]),
                            total_steps=plan.sweep_steps, warmup_steps=plan.sweep_warmup,
                            batch_size=64, eval_every=100, seed=seed)
    # Warm-up: first calls into each code path, outside every timed region.
    for p in POWERS:
        spectral_transform(inputs[0].matrix, p)
    spectral_power_exact(oracle_inputs[0], ORACLE_POWER)
    for task in ("charlm", "matreg"):
        run_training(TrainConfig(task=task, optimizer=parse_optimizer("msgds"),
                                 hp=HyperParams(lr_mat=0.01), total_steps=2, warmup_steps=1,
                                 batch_size=64, eval_every=100, seed=seed))
    return World(inputs, oracle_inputs, charlm, sweep_cfg, SweepPlan(coarse_grid=plan.sweep_grid))


def svd_power(m: np.ndarray, p: float) -> np.ndarray:
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    keep = s > SVD_RANK_CUTOFF * s[0]
    return (u[:, keep] * s[keep] ** p) @ vt[keep]


def least_squares_floor(seed: int) -> float:
    """Smallest reachable matreg train loss, from numpy.linalg.lstsq."""
    task = tasks.make_task("matreg", seed)
    a = task.a_map[:task.num_train]
    c = task.targets[:task.num_train]
    lin = np.kron(a, task.b_map.T)  # maps W.ravel() to (A W B).ravel()
    w, *_ = np.linalg.lstsq(lin, c.ravel(), rcond=None)
    resid = lin @ w - c.ravel()
    return 0.5 * float(resid @ resid) / task.num_train


@dataclass
class References:
    powers: dict[SpectralExponent, list[np.ndarray]]
    oracle: list[np.ndarray]
    lstsq_floor: float


def references(world: World, seed: int) -> References:
    return References(
        powers={p: [svd_power(k.matrix, p.power) for k in world.kernel_inputs] for p in ACCURACY},
        oracle=[svd_power(m, ORACLE_POWER) for m in world.oracle_inputs],
        lstsq_floor=least_squares_floor(seed),
    )


def rel_fro(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


# --- measurement --------------------------------------------------------------


@dataclass
class RunParts:
    """One run_training call: how many of each part it had, and its wall time."""
    task: str
    token: str
    counts: Counter
    wall_s: float = 0.0


class Bench:
    def __init__(self, workload: str, plan: Plan, world: World, refs: References):
        self.workload = workload
        self.plan = plan
        self.world = world
        self.refs = refs
        self.samples: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.stamps = Stamps()
        # Seconds of each part of every run_training call, by part key:
        # (task, stamp it starts at, stamp it ends at, optimizer or "").
        self.parts: dict[tuple[str, str, str, str], list[float]] = defaultdict(list)
        self.train_runs: dict[str, RunParts] = {}
        self.sweeps: list[tuple[int, list[RunParts], float]] = []  # steps, trials, own s
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds = 0
        self.charlm_rows: dict[str, list[tuple]] = {}
        self.first_sweep: dict[str, list[tuple]] = {}
        self.sweep_counts: Counter = Counter()  # over the first sweep of each optimizer
        # Per power: first outputs and their verdicts; later passes must
        # reproduce the outputs bit for bit and inherit the verdicts.
        self.kernel_outputs: dict[SpectralExponent, list] = {}
        self.kernel_verdicts: dict[SpectralExponent, list[bool]] = {}
        self.rel_err: dict[SpectralExponent, float] = {}
        self.iterations: dict[tuple[str, str], list[int]] = defaultdict(list)
        self.zero_sv_min = float("inf")
        self.oracle_ok: list[bool] | None = None

    def problem(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)

    def measure(self, seconds: float) -> None:
        ops = round_ops(self.workload)
        handlers = {"train": self.op_train, "sweep": self.op_sweep,
                    "transform": self.op_transform, "oracle": self.op_oracle}
        start = time.perf_counter()
        longest = 0.0
        try:
            self.install_stamps()
            while True:
                began = time.perf_counter()
                k = self.rounds % len(ops)
                for kind, arg in ops[k:] + ops[:k]:
                    handlers[kind](arg)
                self.rounds += 1
                now = time.perf_counter()
                longest = max(longest, now - began)
                if now + longest > start + seconds:
                    break
        finally:
            self.stamps.uninstall()

    def install_stamps(self) -> None:
        here = sys.modules[__name__]
        run_attrs = lambda cfg: (cfg.task, cfg.optimizer.token)  # noqa: E731
        self.stamps.install(here, "run_training", "run_training", run_attrs)
        self.stamps.install(sweep_module, "run_training", "run_training", run_attrs)
        for cls in (tasks.CharMlp, tasks.MatrixRegression):
            for attr in ("loss_and_grads", "train_loss", "eval_loss"):
                self.stamps.install(cls, attr, attr)

    def take_runs(self) -> list[RunParts]:
        """Split the stamps so far into run_training calls and their parts.

        A part lasts from one stamp to the next and is named by both: set-up
        from run_training's start to train_loss, a forward/backward pass from
        loss_and_grads to its return, an optimizer update from that return
        to the next loss_and_grads (or to train_loss, at an eval row; a
        diverged step goes to eval_loss instead, with no update), and so on.
        Parts are pooled by task, and the updates also by optimizer, since
        they alone depend on it.
        """
        runs, run = [], None
        events = self.stamps.events
        for i, (name, t, attrs) in enumerate(events):
            if name == "run_training":
                run = RunParts(*attrs, Counter(), -t)
            if name == "/run_training":
                run.wall_s += t
                runs.append(run)
                run = None
            elif run is not None:
                following, end = events[i + 1][:2]
                key = (run.task, name, following, run.token if name == "/loss_and_grads" else "")
                self.parts[key].append(end - t)
                run.counts[key] += 1
        events.clear()
        return runs

    def estimate_s(self, run: RunParts) -> float:
        """The run's wall time with each part at the fastest of its pool."""
        return sum(n * fast(self.parts[key]) for key, n in run.counts.items())

    def op_train(self, token: str) -> None:
        cfg = self.world.charlm[token]
        record = run_training(cfg)
        [run] = self.take_runs()
        self.attempted += 1
        if not record.completed:
            self.failed += 1
            self.problem(f"charlm {token}: run diverged at step {record.diverged_step}")
            return
        self.train_runs[token] = run
        self.samples[("train", token)].append(1e3 * run.wall_s / cfg.total_steps)
        rows = [(r.step, r.train_loss, r.eval_loss, r.lr_mat_effective) for r in record.rows]
        first = self.charlm_rows.setdefault(token, rows)
        if rows != first:
            self.problem(f"charlm {token}: eval rows differ between runs of the same config")
        if rows[-1][2] >= rows[0][2]:
            self.problem(f"charlm {token}: held-out loss {rows[-1][2]:.4f} "
                         f"not below initial {rows[0][2]:.4f}")

    def op_sweep(self, token: str) -> None:
        cfg = self.world.sweep_cfg
        began = time.perf_counter()
        report = run_sweep(cfg, self.world.sweep_plan, [parse_optimizer(token)])
        elapsed = time.perf_counter() - began
        trials = self.take_runs()
        # One operation per run_sweep call: its trial count depends on the
        # seed, and the failed share of a run must not.
        self.attempted += 1
        steps = sum(t.record.diverged_step or cfg.total_steps for t in report.trials)
        self.samples[("sweep", token)].append(elapsed)
        self.sweeps.append((steps, trials, elapsed - sum(t.wall_s for t in trials)))
        summary = [(t.lr, t.record.outcome, t.record.rows[-1].train_loss) for t in report.trials]
        if token in self.first_sweep:
            if summary != self.first_sweep[token]:
                self.problem(f"matreg sweep {token}: trials differ between sweeps")
            return
        self.first_sweep[token] = summary
        self.sweep_counts.update(trials=len(report.trials), steps=steps,
                                 diverged=sum(not t.completed for t in report.trials))
        floor = self.refs.lstsq_floor
        for t in report.trials:
            if t.completed and t.record.rows[-1].train_loss < floor * (1 - 1e-9):
                self.problem(f"matreg {t.optimizer.token} lr {t.lr:g}: train loss "
                             f"{t.record.rows[-1].train_loss:.6e} below the least-squares "
                             f"minimum {floor:.6e}")
        best = report.best_by_optimizer[token]
        if best is None:
            self.problem(f"matreg {token}: every trial diverged")
            return
        rows = best.record.rows
        if rows[-1].train_loss >= rows[0].train_loss / 100:
            self.problem(f"matreg {token}: best trial ends at {rows[-1].train_loss:.3e}, "
                         f"not below 1/100 of {rows[0].train_loss:.3e}")

    def op_transform(self, power: str) -> None:
        p = SpectralExponent(power)
        outputs = []
        for i, item in enumerate(self.world.kernel_inputs):
            began = time.perf_counter()
            try:
                outputs.append(spectral_transform(item.matrix, p))
            except ToolkitError as exc:
                outputs.append(exc)
            self.samples[(f"transform.{power}", str(i))].append(
                1e3 * (time.perf_counter() - began))
        self.attempted += len(outputs)
        if p not in self.kernel_outputs:
            self.kernel_outputs[p] = outputs
            self.kernel_verdicts[p] = [self.check_transform(p, i, out)
                                       for i, out in enumerate(outputs)]
        elif not all(_same(a, b) for a, b in zip(outputs, self.kernel_outputs[p])):
            self.problem(f"spectral_transform p={power}: outputs differ between passes")
        self.failed += self.kernel_verdicts[p].count(False)

    def check_transform(self, p: SpectralExponent, i: int, out) -> bool:
        """Accuracy verdict of one call; property violations are problems."""
        item = self.world.kernel_inputs[i]
        shape = "x".join(map(str, item.matrix.shape))
        if isinstance(out, Exception):
            if p in ACCURACY:
                self.rel_err[p] = max(self.rel_err.get(p, 0.0), 1.0)
            return False
        z, diag = out
        self.iterations[(p.value, shape)].append(diag.iterations_run)
        s = item.matrix.T @ z
        scale = float(np.linalg.norm(s))
        sym = 0.5 * (s + s.T)
        if (np.linalg.norm(s - s.T) > PSD_TOL * scale
                or np.linalg.eigvalsh(sym)[0] < -PSD_TOL * scale):
            self.problem(f"spectral_transform p={p.value} on {item.label}: "
                         "O^T Z is not symmetric positive semidefinite")
        if p in ACCURACY:
            err = rel_fro(z, self.refs.powers[p][i])
            self.rel_err[p] = max(self.rel_err.get(p, 0.0), err)
            return err <= ACCURACY[p]
        sv = np.linalg.svd(z, compute_uv=False)
        if item.cond is not None and item.cond >= 1e4:
            self.zero_sv_min = min(self.zero_sv_min, float(sv.min()))
        if item.cond is not None and item.cond <= 100:
            lo, hi = calibration.QUINTIC_SV_BAND
            return bool(lo <= sv.min() and sv.max() <= hi)
        return True

    def op_oracle(self, _arg: str) -> None:
        outputs = []
        for i, m in enumerate(self.world.oracle_inputs):
            began = time.perf_counter()
            try:
                outputs.append(spectral_power_exact(m, ORACLE_POWER))
            except ToolkitError as exc:
                outputs.append(exc)
            self.samples[("oracle", str(i))].append(1e3 * (time.perf_counter() - began))
        self.attempted += len(outputs)
        if self.oracle_ok is None:
            self.oracle_ok = [not isinstance(out, Exception) and rel_fro(out, ref) <= ORACLE_TOL
                              for out, ref in zip(outputs, self.refs.oracle)]
        self.failed += self.oracle_ok.count(False)


def _same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return np.array_equal(a[0], b[0])


def median(values: list[float]) -> float:
    """Median of a metric's samples; NaN when an operation never succeeded."""
    return statistics.median(values) if values else math.nan


def fast(values: list[float]) -> float:
    """The fastest of a part's samples; NaN when there are none.

    The shared host slows every call by up to 2x for stretches of seconds to
    minutes, and a short part finds a quiet moment far more often than a
    whole run does: the fastest sample is the time the part takes when the
    host lets it run at full speed (see README, "Statistic").
    """
    return min(values) if values else math.nan


def pass_ms(bench: Bench, kind: str, stat=fast) -> float:
    """One pass over a call list: the sum of each call's time."""
    return sum(stat(v) for (k, _), v in bench.samples.items() if k == kind)


def step_ms(bench: Bench, token: str) -> float:
    """ms/step of a plan.step_ms_steps-step charlm run with the same two eval
    rows as the round's runs: one of their runs plus the missing steps, each
    a forward/backward pass and an update."""
    run = bench.train_runs.get(token)
    if run is None:
        return math.nan
    steps = bench.plan.step_ms_steps
    extra = steps - bench.world.charlm[token].total_steps
    counts = run.counts + Counter({("charlm", "loss_and_grads", "/loss_and_grads", ""): extra,
                                   ("charlm", "/loss_and_grads", "loss_and_grads", token): extra})
    return 1e3 * bench.estimate_s(RunParts(run.task, run.token, counts)) / steps


def sweep_steps_per_s(bench: Bench) -> float:
    """Steps of every trial / the sweeps' wall time, each trial estimated
    from its parts plus the sweep's own time between trials."""
    steps = sum(n for n, _, _ in bench.sweeps)
    return steps / sum(sum(map(bench.estimate_s, trials)) + own_s
                       for _, trials, own_s in bench.sweeps)


def end_to_end(bench: Bench, setup_s: float) -> dict[str, tuple[float, str]]:
    out = {"setup_s": (setup_s, "s")}
    for p in (SpectralExponent.ONE,) + POWERS:
        pair = [kind.token for kind in ALL_OPTIMIZERS if kind.exponent is p]
        out[f"step_ms.{p.value}"] = (statistics.fmean(step_ms(bench, t) for t in pair), "ms")
    out["sweep_steps_per_s"] = (sweep_steps_per_s(bench), "steps/s")
    for p in POWERS:
        out[f"transform_ms.{p.value}"] = (pass_ms(bench, f"transform.{p.value}"), "ms")
    for p in ACCURACY:
        out[f"rel_err.{p.value}"] = (bench.rel_err[p], "ratio")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return out


def whole_call_medians(bench: Bench) -> dict[str, float]:
    """Whole calls' medians (ms/step of the round's charlm runs as they ran;
    the sweeps' steps over their wall time), for comparison with the fast parts."""
    out = {f"step_ms.{t}": median(bench.samples[("train", t)])
           for t in [k.token for k in ALL_OPTIMIZERS]}
    out["sweep_steps_per_s"] = (sum(n for n, _, _ in bench.sweeps)
                                / sum(sum(bench.samples[("sweep", k.token)]) for k in ALL_OPTIMIZERS))
    for p in POWERS:
        out[f"transform_ms.{p.value}"] = pass_ms(bench, f"transform.{p.value}", median)
    out["oracle_ms"] = pass_ms(bench, "oracle", median)
    return out


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


# --- tracing ----------------------------------------------------------------


def _shape(m) -> str:
    return "x".join(map(str, np.shape(m)))


def install_tracer(tracer: Tracer) -> None:
    """Wrap each public function at the name its caller looks it up by."""
    here = sys.modules[__name__]
    train_attrs = lambda cfg: (cfg.task, cfg.optimizer.token)  # noqa: E731
    tracer.install(here, "run_training", "train.run_training", train_attrs)
    tracer.install(sweep_module, "run_training", "train.run_training", train_attrs)
    tracer.install(here, "run_sweep", "sweep.run_sweep")
    for cls in (tasks.CharMlp, tasks.MatrixRegression):
        tracer.install(cls, "loss_and_grads", f"tasks.{cls.name}.fwd_bwd")
        tracer.install(cls, "train_loss", f"tasks.{cls.name}.train_loss")
        tracer.install(cls, "eval_loss", f"tasks.{cls.name}.eval_loss")
    tracer.install(train, "step_matrix_param", "optim.step_matrix_param")
    tracer.install(train, "step_vector_param", "optim.step_vector_param")
    kernel_attrs = lambda o, p, *a, **k: (p.value, _shape(o))  # noqa: E731
    tracer.install(optim, "spectral_transform", "kernels.from_optim", kernel_attrs)
    tracer.install(here, "spectral_transform", "kernels.direct", kernel_attrs)
    tracer.install(here, "spectral_power_exact", "oracle.spectral_power_exact",
                   lambda o, p, *a, **k: _shape(o))


TRAINING_SHAPES = ("96x16", "128x128", "96x128")
STRESS_SHAPE = "512x256"


def per_layer(bench: Bench, tracer: Tracer) -> dict[str, tuple[float, str]]:
    totals = tracer.totals()

    def pick(name, attrs=lambda a: True):
        calls = own = wall = 0.0
        for (n, a), (c, o, w) in totals.items():
            if n == name and attrs(a):
                calls, own, wall = calls + c, own + o, wall + w
        return calls, own, wall

    def per_call_ms(name, attrs=lambda a: True, self_time=True):
        calls, own, wall = pick(name, attrs)
        return 1e3 * (own if self_time else wall) / calls if calls else 0.0

    out = {}
    for task in ("charlm", "matreg"):
        out[f"tasks.{task}.fwd_bwd_ms"] = (per_call_ms(f"tasks.{task}.fwd_bwd"), "ms")
        rows, _, _ = pick(f"tasks.{task}.eval_loss")
        own = pick(f"tasks.{task}.train_loss")[1] + pick(f"tasks.{task}.eval_loss")[1]
        out[f"tasks.{task}.eval_ms"] = (1e3 * own / rows if rows else 0.0, "ms")
    out["optim.matrix_step_self_ms"] = (per_call_ms("optim.step_matrix_param"), "ms")
    out["optim.vector_step_ms"] = (per_call_ms("optim.step_vector_param"), "ms")
    for p in POWERS:
        for shape in TRAINING_SHAPES + (STRESS_SHAPE,):
            source = "kernels.direct" if shape == STRESS_SHAPE else "kernels.from_optim"
            out[f"kernels.{p.value}.{shape}.ms"] = (
                per_call_ms(source, lambda a: a == (p.value, shape), self_time=False), "ms")
    for p in POWERS:
        for shape in TRAINING_SHAPES + (STRESS_SHAPE,):
            out[f"kernels.{p.value}.{shape}.iters"] = (
                statistics.fmean(bench.iterations[(p.value, shape)]), "count")
    out["kernels.zero.sv_min"] = (bench.zero_sv_min, "ratio")
    for shape in ("20x14", "96x16", "64x48"):
        out[f"oracle.{shape}.ms"] = (
            per_call_ms("oracle.spectral_power_exact", lambda a: a == shape), "ms")
    steps = pick("tasks.charlm.fwd_bwd")[0] + pick("tasks.matreg.fwd_bwd")[0]
    out["train.self_ms_per_step"] = (1e3 * pick("train.run_training")[1] / steps, "ms")
    charlm_steps = bench.world.charlm["msgd"].total_steps
    for kind in ALL_OPTIMIZERS:
        out[f"train.{kind.token}.step_ms"] = (
            per_call_ms("train.run_training", lambda a: a == ("charlm", kind.token),
                        self_time=False) / charlm_steps, "ms")
    out["sweep.trials"] = (bench.sweep_counts["trials"], "count")
    out["sweep.diverged_trials"] = (bench.sweep_counts["diverged"], "count")
    out["sweep.steps"] = (bench.sweep_counts["steps"], "count")
    out["sweep.self_ms"] = (per_call_ms("sweep.run_sweep"), "ms")
    return out


# --- environment and entry point -----------------------------------------------


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, read through its C interface."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    ap.add_argument("--seconds", type=float, default=58.0,
                    help="measure until another round would overrun this (default 58)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (one cold set-up sample)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")
    return args


def cold_setup_s(args) -> float:
    """One more cold set-up: a fresh process that sets up and exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None, plan: Plan = FULL) -> int:
    args = parse_args(argv)
    facts = environment()
    world = build(plan, args.seed)
    # Set-up time runs from the start of this script to the first timed
    # operation, cold: imports, inputs, task construction, warm-up calls.
    setups = [time.perf_counter() - _PROCESS_START]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0
    setups += [cold_setup_s(args) for _ in range(plan.setup_repeats - 1)]
    setup_s = statistics.median(setups)
    began = time.perf_counter()
    refs = references(world, args.seed)
    reference_s = time.perf_counter() - began

    bench = Bench(args.workload, plan, world, refs)
    tracer = Tracer() if args.trace else None
    began = time.perf_counter()
    try:
        if tracer is not None:
            install_tracer(tracer)
        bench.measure(args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    measure_s = time.perf_counter() - began

    e2e = end_to_end(bench, setup_s)
    layers = per_layer(bench, tracer) if tracer is not None else None
    metrics = layers if tracer is not None else e2e
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "args": vars(args), "environment": facts, "rounds": bench.rounds,
        "setup_runs_s": setups, "measure_s": measure_s, "import_s": _IMPORT_S, "reference_s": reference_s,
        "problems": bench.problems, "result": result,
        "end_to_end": {name: value for name, (value, _) in e2e.items()},
        "whole_call_medians": whole_call_medians(bench),
        "oracle_ms_fastest": pass_ms(bench, "oracle"),
        "step_ms_fast": {t: step_ms(bench, t) for t in bench.train_runs},
        "parts_fast_ms": {"|".join(k): 1e3 * fast(v) for k, v in bench.parts.items()},
        "samples": {f"{k}.{a}": v for (k, a), v in bench.samples.items()},
        "charlm_heldout": {t: [r[2] for r in rows] for t, rows in bench.charlm_rows.items()},
        "sweep_counts": bench.sweep_counts,
        "lstsq_floor": refs.lstsq_floor,
        "rel_err_by_input": {
            p.value: [rel_fro(o[0], r) if not isinstance(o, Exception) else None
                      for o, r in zip(bench.kernel_outputs.get(p, []), refs.powers[p])]
            for p in ACCURACY},
        "inputs": [k.label for k in world.kernel_inputs],
        "verdicts": {p.value: v for p, v in bench.kernel_verdicts.items()},
    }
    if tracer is not None:
        record["spans"] = tracer.spans
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, default=str))

    print(json.dumps({"environment": facts, "rounds": bench.rounds}))
    for text in bench.problems:
        print(f"CHECK FAILED: {text}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
