"""Training loop: schedule, records, replay determinism, divergence.

The reduction test rebuilds the whole loop from primitive numpy for the
plain adam case and demands bit-identical recorded rows, which pins the
batch order, the schedule, and the update arithmetic all at once.
"""

import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from specopt import dense, kernels, train
from specopt.errors import ConfigError, KernelDivergenceError
from specopt.optim import ALL_OPTIMIZERS, HyperParams, OptimizerState, parse_optimizer
from specopt.sweep import SweepPlan
from specopt.tasks import MatrixRegression
from specopt.train import (
    COMPLETED,
    DIVERGED,
    TOOLKIT_VERSION,
    EvalRow,
    RunRecord,
    TrainConfig,
    _BatchStream,
    canonical_config_text,
    config_digest,
    lr_at,
    run_training,
)


def matreg_config(**overrides):
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


# --- schedule ---------------------------------------------------------------


def test_lr_warmup_is_linear():
    cfg = matreg_config(hp=HyperParams(lr_mat=1.0), total_steps=2000, warmup_steps=100)
    assert lr_at(cfg, 1) == 0.01
    assert lr_at(cfg, 50) == 0.5
    assert lr_at(cfg, 100) == 1.0


def test_lr_cosine_tail_lands_on_a_tenth_of_peak():
    cfg = matreg_config(hp=HyperParams(lr_mat=0.8), total_steps=2000, warmup_steps=100)
    assert abs(lr_at(cfg, 2000) - 0.08) < 1e-15
    mid = lr_at(cfg, 100 + 950)
    assert abs(mid - 0.8 * 0.55) < 1e-12
    lrs = [lr_at(cfg, s) for s in range(100, 2001)]
    assert all(b < a for a, b in zip(lrs, lrs[1:]))


# --- config plumbing --------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        matreg_config(total_steps=0)
    with pytest.raises(ConfigError):
        matreg_config(warmup_steps=0)
    with pytest.raises(ConfigError):
        matreg_config(total_steps=10, warmup_steps=10)
    with pytest.raises(ConfigError):
        matreg_config(batch_size=0)
    with pytest.raises(ConfigError):
        matreg_config(eval_every=0)
    with pytest.raises(ConfigError):
        matreg_config(divergence_threshold=0.0)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        matreg_config(seed=-1)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("build", [
    pytest.param(lambda v: matreg_config(divergence_threshold=v), id="divergence_threshold"),
    pytest.param(lambda v: HyperParams(lr_mat=v), id="lr_mat"),
    pytest.param(lambda v: HyperParams(lr_mat=0.01, lr_vec=v), id="lr_vec"),
    pytest.param(lambda v: HyperParams(lr_mat=0.01, eps=v), id="eps"),
    pytest.param(lambda v: SweepPlan(coarse_grid=(v,)), id="coarse_grid"),
    pytest.param(lambda v: SweepPlan(coarse_grid=(0.01,), refine_factor_grid=(v,)),
                 id="refine_factor_grid"),
])
def test_non_finite_fields_are_config_errors(build, value):
    # the library path, not only the config-text parser: divergence_threshold = nan
    # would switch the divergence check off, since loss > nan is always false
    with pytest.raises(ConfigError, match="finite"):
        build(value)


def test_canonical_text_is_sorted_and_complete():
    cfg = matreg_config()
    text = canonical_config_text(cfg)
    keys = [line.split(" = ")[0] for line in text.splitlines()]
    assert keys == sorted(keys)
    assert len(keys) == 17
    assert "optimizer = adam\n" in text
    assert "divergence_threshold = auto\n" in text
    assert "corpus = builtin\n" in text
    assert "spectral_iters = default\n" in text


def test_digest_tracks_every_field():
    base = config_digest(matreg_config())
    assert len(base) == 64
    assert config_digest(matreg_config()) == base
    assert config_digest(matreg_config(seed=1)) != base
    assert config_digest(matreg_config(hp=HyperParams(lr_mat=0.02))) != base


# --- batch stream -----------------------------------------------------------


def test_batch_stream_walks_epochs_without_wrapping_slices():
    stream = _BatchStream(10, 4, np.random.default_rng(0))
    first_epoch = stream.perm.copy()
    a, b = stream.next(), stream.next()
    assert np.array_equal(np.concatenate([a, b]), first_epoch[:8])
    c = stream.next()  # 8 + 4 > 10: reshuffles instead of wrapping
    assert len(c) == 4
    assert np.array_equal(c, stream.perm[:4])
    assert stream.pos == 4


def test_batch_stream_caps_batch_at_population():
    stream = _BatchStream(6, 64, np.random.default_rng(1))
    batch = stream.next()
    assert np.array_equal(np.sort(batch), np.arange(6))


# --- run records ------------------------------------------------------------


def test_to_csv_pins_the_exact_format():
    record = RunRecord(config_digest="abc123")
    record.rows.append(EvalRow(0, 1.5, 2.5, 0.0))
    record.rows.append(EvalRow(10, 0.125, 0.25, 0.01))
    want = (
        "# config_digest=abc123\n"
        f"# version={TOOLKIT_VERSION}\n"
        "# optimizer=adam\n"
        "# outcome=completed\n"
        "step,train_loss,eval_loss,lr_mat_effective\n"
        "0,1.5,2.5,0.0\n"
        "10,0.125,0.25,0.01\n"
    )
    assert record.to_csv("adam") == want
    assert "# optimizer=" not in record.to_csv()


def test_final_eval_loss_handles_empty_rows():
    assert np.isnan(RunRecord(config_digest="x").final_eval_loss)
    rec = RunRecord(config_digest="x", rows=[EvalRow(0, 1.0, 3.0, 0.0)])
    assert rec.final_eval_loss == 3.0


# --- end-to-end runs --------------------------------------------------------


def test_run_starts_with_a_step_zero_row_and_evals_on_schedule():
    record = run_training(matreg_config(total_steps=10, warmup_steps=2, eval_every=4))
    assert [row.step for row in record.rows] == [0, 4, 8, 10]
    assert record.rows[0].lr_mat_effective == 0.0
    assert record.outcome == COMPLETED


def test_runs_replay_bit_identically():
    cfg = matreg_config(seed=5)
    a = run_training(cfg).to_csv()
    b = run_training(cfg).to_csv()
    assert a == b


def test_adam_approaches_the_least_squares_optimum():
    cfg = matreg_config(
        hp=HyperParams(lr_mat=0.01),
        total_steps=2000,
        warmup_steps=100,
        batch_size=64,
        eval_every=100,
    )
    record = run_training(cfg)
    assert record.outcome == COMPLETED

    # closed-form optimum on the train split via the normal equations
    task = MatrixRegression(seed=cfg.seed)
    a = task.a_map[: task.num_train]
    c = task.targets[: task.num_train]
    b = task.b_map
    w_best = np.linalg.solve(a.T @ a, np.linalg.solve((b @ b.T).T, (a.T @ c @ b.T).T).T)
    best = task.train_loss({"W": w_best})

    final_train = record.rows[-1].train_loss
    assert final_train <= 2.0 * best
    assert record.final_eval_loss <= 0.1 * record.rows[0].eval_loss


def test_stable_runs_decrease_train_loss_between_evals():
    for token, lr in (("msgd", 0.5), ("adam", 0.01)):
        cfg = matreg_config(
            optimizer=parse_optimizer(token),
            hp=HyperParams(lr_mat=lr),
            total_steps=600,
            warmup_steps=30,
            batch_size=40,
            eval_every=50,
            seed=3,
        )
        record = run_training(cfg)
        losses = [row.train_loss for row in record.rows]
        assert all(b < a for a, b in zip(losses, losses[1:])), token


def test_divergence_is_recorded_not_raised():
    record = run_training(matreg_config(hp=HyperParams(lr_mat=1e6), seed=0))
    assert record.outcome == DIVERGED
    assert not record.completed
    assert record.diverged_step is not None and record.diverged_step >= 1
    assert record.rows[-1].step == record.diverged_step
    assert "# outcome=diverged" in record.to_csv()


def test_adam_run_matches_a_from_scratch_reimplementation():
    cfg = matreg_config(seed=2, total_steps=90, warmup_steps=9, eval_every=30)
    record = run_training(cfg)

    task = MatrixRegression(seed=2)
    init_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([2, 1])))
    batch_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([2, 2])))
    w = task.init_params(init_rng)["W"]
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    hp = cfg.hp
    rows = [(0, task.train_loss({"W": w}), task.eval_loss({"W": w}), 0.0)]
    bs = min(cfg.batch_size, task.num_train)
    perm = batch_rng.permutation(task.num_train)
    pos = 0
    for step in range(1, cfg.total_steps + 1):
        if step <= cfg.warmup_steps:
            lr = hp.lr_mat * step / cfg.warmup_steps
        else:
            frac = (step - cfg.warmup_steps) / (cfg.total_steps - cfg.warmup_steps)
            lr = hp.lr_mat * (0.1 + 0.45 * (1.0 + np.cos(np.pi * frac)))
        lr = float(lr)
        if pos + bs > task.num_train:
            perm = batch_rng.permutation(task.num_train)
            pos = 0
        indices = perm[pos:pos + bs]
        pos += bs
        _, grads = task.loss_and_grads({"W": w}, indices)
        g = grads["W"]
        m = hp.beta1 * m + (1.0 - hp.beta1) * g
        v = hp.beta2 * v + (1.0 - hp.beta2) * (g * g)
        w = w - lr * (m / (np.sqrt(v) + hp.eps))
        if step % cfg.eval_every == 0 or step == cfg.total_steps:
            rows.append((step, task.train_loss({"W": w}), task.eval_loss({"W": w}), lr))

    assert len(record.rows) == len(rows)
    for got, want in zip(record.rows, rows):
        assert got.step == want[0]
        assert got.train_loss == want[1]
        assert got.eval_loss == want[2]
        assert got.lr_mat_effective == want[3]


# --- concurrent matrix steps ------------------------------------------------

SPECTRAL = [kind.token for kind in ALL_OPTIMIZERS if kind.exponent.value != "one"]
# A peak matrix rate inside each optimizer's stable region on charlm; 300x it diverges.
CHARLM_LR = {"msgds": 0.3, "msgdq": 0.1, "msgdz": 0.03, "adams": 0.01, "adamq": 0.01,
             "adamz": 0.03}


def charlm_config(token, lr, **overrides):
    base = dict(task="charlm", optimizer=parse_optimizer(token),
                hp=HyperParams(lr_mat=lr, lr_vec=lr), total_steps=12, warmup_steps=3,
                batch_size=64, eval_every=4, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def step_threads():
    return [t for t in threading.enumerate() if t.name.startswith("specopt-step")]


def run_python(code, *blas_counts):
    """The probe's stdout at each BLAS thread count, its processes run all at
    once; each must exit 0 within two minutes."""
    procs = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, OPENBLAS_NUM_THREADS=str(count),
                                       PYTHONPATH=os.pathsep.join(sys.path)))
             for count in blas_counts]
    try:
        outs = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            if proc.returncode:
                raise subprocess.CalledProcessError(proc.returncode, proc.args, out, err)
            outs.append(out)
        return outs
    finally:
        for proc in procs:
            proc.kill()  # a no-op on one that has exited
            proc.wait()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_steps_run_concurrently_at_any_blas_thread_count():
    probe = """
import threading
from specopt import dense, train
from specopt.optim import HyperParams, parse_optimizer
names = set()
real = train.step_matrix_param
def step(*args, **kwargs):
    names.add(threading.current_thread().name)
    return real(*args, **kwargs)
train.step_matrix_param = step
train.run_training(train.TrainConfig(task="charlm", optimizer=parse_optimizer("msgds"),
                                     hp=HyperParams(lr_mat=0.3), total_steps=4, warmup_steps=1))
print(dense.blas_threads(), *sorted(names))
"""
    [out] = run_python(probe, 2)
    count, *names = out.split()
    assert count == "2"
    assert any(name.startswith("specopt-step") for name in names)


def test_rows_do_not_depend_on_the_blas_thread_count():
    probe = """
from specopt.optim import ALL_OPTIMIZERS, HyperParams
from specopt.train import TrainConfig, run_training
LR = {"msgd": 3.0, "msgds": 0.3, "msgdq": 0.1, "msgdz": 0.03,
      "adam": 0.003, "adams": 0.01, "adamq": 0.01, "adamz": 0.03}
for kind in ALL_OPTIMIZERS:
    cfg = TrainConfig(task="charlm", optimizer=kind, hp=HyperParams(lr_mat=LR[kind.token]),
                      total_steps=40, warmup_steps=4, eval_every=10)
    print(run_training(cfg).to_csv(kind.token))
"""
    one, two = run_python(probe, 1, 2)
    assert one.count("# outcome=completed") == len(ALL_OPTIMIZERS)
    assert two == one


def test_the_costliest_matrix_steps_on_the_caller_and_the_rest_on_one_helper(monkeypatch):
    shapes = {"a": (8, 8), "b": (8, 8), "c": (4, 90), "w": (9, 3)}
    params = {name: np.zeros(shape) for name, shape in shapes.items()}
    names = sorted(params)
    for lanes, want in ((1, []), (2, ["b", "c", "w"]), (3, ["b", "c", "w"]), (9, ["b", "c", "w"])):
        monkeypatch.setattr(dense, "step_lanes", lambda: lanes)
        assert train._offloaded(params, names, parse_optimizer("adams").exponent) == want
        assert train._offloaded(params, names, parse_optimizer("adam").exponent) == []
        assert train._offloaded(params, ["a"], parse_optimizer("adams").exponent) == []
    assert train._offloaded(params, ["c", "w"], parse_optimizer("adams").exponent) == ["w"]


def run_on(monkeypatch, lanes, cfg):
    monkeypatch.setattr(dense, "step_lanes", lambda: lanes)
    before = threading.active_count()
    record = run_training(cfg)
    assert threading.active_count() == before and not step_threads()
    return record


@pytest.fixture
def step_lanes_opened(monkeypatch):
    """(name, helper) of each step lane runs open, in opening order."""
    opened = []
    init = dense.Lane.__init__

    def recording(self, helper, name):
        if name.startswith("specopt-step"):
            opened.append((name, helper))
        init(self, helper, name)

    monkeypatch.setattr(dense.Lane, "__init__", recording)
    return opened


@pytest.mark.parametrize("token", SPECTRAL)
def test_rows_do_not_depend_on_the_cpu_count(monkeypatch, step_lanes_opened, token):
    """One helper lane per run from two lanes on, none at one."""
    for lr, outcome in ((CHARLM_LR[token], COMPLETED), (300 * CHARLM_LR[token], DIVERGED)):
        cfg = charlm_config(token, lr)
        rows = []
        for lanes in (1, 2, 3):
            record = run_on(monkeypatch, lanes, cfg)
            assert record.outcome == outcome
            rows.append(record.to_csv(token))
            assert step_lanes_opened == ([] if lanes == 1 else [("specopt-step", True)])
            step_lanes_opened.clear()
        assert rows[1:] == rows[:1] * 2


@pytest.mark.parametrize("task, token", [("charlm", "msgd"), ("charlm", "adam"),
                                         ("matreg", "msgdq"), ("matreg", "adamz")])
def test_identity_exponent_and_single_matrix_runs_start_no_thread(monkeypatch, step_lanes_opened,
                                                                  task, token):
    cfg = charlm_config(token, 0.01, task=task)
    record = run_on(monkeypatch, 4, cfg)
    assert record.outcome == COMPLETED
    assert step_lanes_opened == []


def record_matrix_steps(monkeypatch, events):
    """Append (name, thread) to ``events`` at the start of every matrix step."""
    real = train.step_matrix_param

    def step(w, g, state, kind, hp, param_name=""):
        events.append((param_name, threading.current_thread()))
        return real(w, g, state, kind, hp, param_name=param_name)

    monkeypatch.setattr(train, "step_matrix_param", step)


def spy_on_the_step_lane(monkeypatch, events):
    """Append ("push", name) to ``events`` for each matrix step pushed to the
    run's helper, and ("fold", pushing thread, running thread) for each other
    call pushed to it: a fold of X."""
    step_lanes, init, push = set(), dense.Lane.__init__, dense.Lane.push

    def opening(self, helper, name):
        if name.startswith("specopt-step"):
            step_lanes.add(self)
        init(self, helper, name)

    def pushing(self, fn, *args):
        if self in step_lanes and isinstance(args[0], str):
            events.append(("push", args[0]))
        elif self in step_lanes:
            pusher = threading.current_thread().name

            def fold(*args):
                events.append(("fold", pusher, threading.current_thread().name))
                return fn(*args)

            return push(self, fold, *args)
        return push(self, fn, *args)

    monkeypatch.setattr(dense.Lane, "__init__", opening)
    monkeypatch.setattr(dense.Lane, "push", pushing)


@pytest.mark.parametrize("lanes", [2, 3])
def test_each_step_pushes_the_helpers_steps_before_the_callers(monkeypatch, lanes):
    """The caller's step waits on the helper for its folds, so a helper step
    pushed after it would run after those folds and hold the caller back."""
    events = []
    record_matrix_steps(monkeypatch, events)
    spy_on_the_step_lane(monkeypatch, events)
    cfg = charlm_config("msgds", CHARLM_LR["msgds"])
    assert run_on(monkeypatch, lanes, cfg).outcome == COMPLETED
    main = threading.main_thread()
    order = [event for event in events if event[0] == "push" or event[1] is main]
    assert order == [("push", "W2"), ("push", "embed"), ("W1", main)] * cfg.total_steps


def test_a_run_steps_each_offloaded_matrix_on_one_thread_throughout(monkeypatch):
    events = []
    record_matrix_steps(monkeypatch, events)
    cfg = charlm_config("msgds", CHARLM_LR["msgds"])
    assert run_on(monkeypatch, 2, cfg).outcome == COMPLETED
    threads = {name: [thread for name_, thread in events if name_ == name]
               for name in ("W1", "W2", "embed")}
    assert [len(seen) for seen in threads.values()] == [cfg.total_steps] * 3
    assert set(threads["W1"]) == {threading.main_thread()}
    (helper,) = set(threads["W2"] + threads["embed"])
    assert helper.name == "specopt-step" and not helper.is_alive()


@pytest.mark.parametrize("token", ["msgds", "msgdq"])
@pytest.mark.parametrize("lanes", [2, 3])
def test_a_run_folds_the_callers_x_on_its_one_helper(monkeypatch, token, lanes):
    """One specopt-step thread per run and no specopt-root thread: W1's
    passes, on the caller, fold X on the helper that steps W2 and the
    embedding; and the run reads the lane count once."""
    started, reads, events = [], [], []
    start = threading.Thread.start

    def starting(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", starting)
    spy_on_the_step_lane(monkeypatch, events)
    monkeypatch.setattr(dense, "step_lanes", lambda: reads.append(lanes) or lanes)
    cfg = charlm_config(token, CHARLM_LR[token], total_steps=40, eval_every=10)
    assert run_training(cfg).outcome == COMPLETED
    assert len(reads) == 1 and started == ["specopt-step"]
    folds = [event for event in events if event[0] == "fold"]
    assert len(folds) >= cfg.total_steps  # a fold or more a pass
    assert set(folds) == {("fold", "MainThread", "specopt-step")}


def capture_params(monkeypatch):
    """Shallow copies of the params dict each task call saw, in call order."""
    seen = []
    real_make_task = train.make_task

    def make_task(*args):
        task = real_make_task(*args)
        for attr in ("loss_and_grads", "eval_loss"):
            def spy(params, *rest, _real=getattr(task, attr)):
                seen.append(dict(params))
                return _real(params, *rest)
            setattr(task, attr, spy)
        return task

    monkeypatch.setattr(train, "make_task", make_task)
    return seen


def before_step(monkeypatch, name, action):
    """Call ``action()`` at the start of every matrix step of ``name``."""
    real = train.step_matrix_param

    def step(w, g, state, kind, hp, param_name=""):
        if param_name == name:
            action()
        return real(w, g, state, kind, hp, param_name=param_name)

    monkeypatch.setattr(train, "step_matrix_param", step)


def fail_at(monkeypatch, name, call, exc):
    """Make the ``call``-th matrix step of ``name`` raise ``exc``."""
    calls = []

    def action():
        calls.append(name)
        if len(calls) == call:
            raise exc

    before_step(monkeypatch, name, action)


@pytest.mark.parametrize("failing", ["W1", "W2", "embed"])
def test_a_failed_step_leaves_later_parameters_unassigned(monkeypatch, failing):
    """A step's params dict is stepped up to the failing name in sorted order,
    whichever thread ran each matrix step (W2 and the embedding step on the
    helper at 2 and 3 lanes, while W1's folds queue behind them)."""
    records = []
    for lanes in (1, 2, 3):
        with monkeypatch.context() as mp:
            seen = capture_params(mp)
            fail_at(mp, failing, 3, KernelDivergenceError("stuck"))
            record = run_on(mp, lanes, charlm_config("adams", 0.01))
        assert record.outcome == DIVERGED and record.diverged_step == 3
        at_step_3, at_divergence = seen[-2], seen[-1]
        stepped = {name for name in at_step_3 if at_divergence[name] is not at_step_3[name]}
        assert stepped == {name for name in at_step_3 if name < failing}
        records.append(record)
    assert records[0].to_csv() == records[1].to_csv() == records[2].to_csv()


@pytest.mark.parametrize("failing", ["W1", "W2"])
def test_non_toolkit_errors_propagate_and_leave_no_thread(monkeypatch, failing):
    fail_at(monkeypatch, failing, 2, ValueError("not a toolkit error"))
    with pytest.raises(ValueError, match="not a toolkit error"):
        run_on(monkeypatch, 2, charlm_config("adamq", 0.01))
    assert not step_threads()


def test_a_fold_failing_behind_a_failed_pass_is_dropped(monkeypatch):
    """W1's pass raises on the caller with a fold still queued on the helper
    that fails too: the run ends on W1's failure, not the fold's."""
    real_residual = kernels._residual

    def residual(m, *rest):
        if m.shape[0] == 128:
            raise KernelDivergenceError("stuck")
        return real_residual(m, *rest)

    def failing_fold(self, fn, *args):
        if isinstance(args[0], str):
            return push(self, fn, *args)
        return push(self, lambda *_: 1 / 0)

    push = dense.Lane.push
    monkeypatch.setattr(kernels, "_residual", residual)
    monkeypatch.setattr(dense.Lane, "push", failing_fold)
    record = run_on(monkeypatch, 2, charlm_config("msgds", CHARLM_LR["msgds"]))
    assert record.outcome == DIVERGED and record.diverged_step == 1


@pytest.mark.parametrize("lanes", [1, 2])
def test_helper_steps_follow_the_callers_error_state(monkeypatch, lanes):
    before_step(monkeypatch, "W2", lambda: np.float64(1e300) * np.float64(1e300))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        run_on(monkeypatch, lanes, charlm_config("msgdz", 0.03))
    with np.errstate(over="ignore"):
        assert run_on(monkeypatch, lanes, charlm_config("msgdz", 0.03)).outcome == COMPLETED


def test_a_warning_in_a_helper_surfaces_in_the_caller(monkeypatch):
    def warn():
        assert threading.current_thread() is not threading.main_thread()
        warnings.warn("from the helper", RuntimeWarning)

    before_step(monkeypatch, "W2", warn)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="from the helper"):
            run_on(monkeypatch, 2, charlm_config("adamz", 0.03))


@pytest.fixture(params=[1, 2])
def blas_count(request):
    """numpy's BLAS thread count set to the param for the test, then restored."""
    calls = dense._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy's BLAS thread count cannot be set")
    get, set_ = calls
    before = get()
    set_(request.param)
    yield request.param
    set_(before)


def test_a_run_pins_one_blas_thread_and_restores_the_count(monkeypatch, blas_count):
    seen = []
    before_step(monkeypatch, "W1", lambda: seen.append(dense.blas_threads()))
    assert run_training(charlm_config("msgds", 0.3)).outcome == COMPLETED
    assert seen and set(seen) == {1}
    assert dense.blas_threads() == blas_count
    assert run_training(charlm_config("msgds", 300 * 0.3)).outcome == DIVERGED
    assert dense.blas_threads() == blas_count
    fail_at(monkeypatch, "W1", 2, ValueError("not a toolkit error"))
    with pytest.raises(ValueError, match="not a toolkit error"):
        run_training(charlm_config("msgds", 0.3))
    assert dense.blas_threads() == blas_count
