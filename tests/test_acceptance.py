"""Acceptance gate: one test per published contract of the toolkit.

Run with ``pytest -v tests/test_acceptance.py`` to get exactly one
pass/fail line per contract. Contracts 01-07 run the property checks of
``specopt.verify`` at their full sample counts (``specopt verify`` runs the
same checks small) and print the worst values they saw. Every tolerance is
frozen in ``specopt.calibration`` and pinned below; loosening one to get a
red build green defeats the purpose of the gate. The slow final test runs
the full desk-scale sweep design and takes about a minute.
"""

import json

import numpy as np

from specopt import calibration, verify
from specopt.cli import main
from specopt.dense import write_matrix
from specopt.optim import HyperParams, parse_optimizer
from specopt.sweep import SweepPlan, classify_stability, run_sweep
from specopt.train import TrainConfig


def test_frozen_tolerances_keep_their_calibrated_values():
    assert calibration.ORACLE_FIXTURE_TOL == 1e-12
    assert calibration.ORACLE_ORTHONORMALITY_TOL == 1e-10
    assert calibration.ORACLE_RECONSTRUCTION_TOL == 1e-9
    assert calibration.CONDITION_LAW_TOL == 1e-9
    assert calibration.COUPLED_IDENTITY_TOL == 1e-6
    assert calibration.REDUCTION_DRIFT_TOL == 1e-12
    assert calibration.GRADIENT_CHECK_TOL == 1e-4
    assert calibration.REL_TOL_HALF == 1e-3
    assert calibration.REL_TOL_QUARTER == 1e-3
    assert calibration.REL_TOL_POLAR_CUBIC == 1e-6
    assert calibration.QUINTIC_SV_BAND == (0.65, 1.21)


def test_01_diagonal_fixture_spectrum_follows_the_power_map():
    print(verify.check_fixture_spectrum())


def test_02_oracle_invariants_and_condition_power_law():
    print(verify.check_oracle_laws(np.random.default_rng(42), draws=50))


def test_03_iterative_kernels_match_the_oracle_within_frozen_tolerances():
    print(verify.check_kernels_vs_oracle(np.random.default_rng(7), draws=100))


def test_04_quintic_output_spectrum_stays_inside_the_calibrated_band():
    rngs = [np.random.default_rng(seed) for seed in (0, 1, 2)]
    print(verify.check_quintic_band(rngs, draws=50))


def test_05_coupled_iterations_satisfy_their_defining_identities():
    print(verify.check_coupled_identities(np.random.default_rng(11), draws=100))


def test_06_optimizer_steps_reduce_to_reference_update_loops():
    print(verify.check_optimizer_reductions(np.random.default_rng(6), steps=500))


def test_07_task_gradients_match_central_finite_differences():
    for name in ("matreg", "charlm"):
        print(verify.check_task_gradients(name, np.random.default_rng(19), coords=120))


# the desk-scale stability/quality contract: the zero exponent widens the
# stable learning-rate region of the momentum family, and the rms update
# never loses to raw momentum on best achievable loss
SWEEP_GRIDS = {
    "msgd": (0.3, 1.0, 3.0, 10.0, 30.0, 100.0),
    "msgdz": (0.003, 0.01, 0.03, 0.1, 0.3, 1.0),
    "adam": (0.0003, 0.001, 0.003, 0.01, 0.03, 0.1),
}


def _grid_sweep(token, seed):
    kind = parse_optimizer(token)
    cfg = TrainConfig(
        task="charlm",
        optimizer=kind,
        hp=HyperParams(lr_mat=SWEEP_GRIDS[token][0]),
        total_steps=400,
        warmup_steps=40,
        batch_size=64,
        eval_every=100,
        seed=seed,
    )
    plan = SweepPlan(coarse_grid=SWEEP_GRIDS[token], max_fine_rounds=0)
    report = run_sweep(cfg, plan, [kind])
    profile = classify_stability(report.trials)
    print(f"seed {seed} {token}")
    for lr, label in profile.labels:
        trial = next(t for t in report.trials if t.lr == lr)
        loss = f"{trial.eval_loss:.4f}" if trial.completed else "-"
        print(f"  lr {lr:>8g}  {label:>8}  held-out {loss}")
    return profile, report.best_by_optimizer[token]


def test_08_zero_exponent_widens_stability_and_adam_matches_msgd_loss():
    for seed in (0, 1, 2):
        spans = {}
        bests = {}
        for token in SWEEP_GRIDS:
            profile, best = _grid_sweep(token, seed)
            assert best is not None, (token, seed)
            spans[token] = profile.span_decades
            bests[token] = best.eval_loss
        print(
            f"seed {seed}: "
            + " ".join(
                f"{tok} span {spans[tok]:.2f} best {bests[tok]:.4f}"
                for tok in SWEEP_GRIDS
            )
        )
        assert spans["msgdz"] >= spans["msgd"], seed
        assert bests["adam"] <= bests["msgd"], seed


def test_09_cli_runs_replay_byte_identically(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "task = matreg\noptimizer = adams\nlr_mat = 0.1\ntotal_steps = 40\n"
        "warmup_steps = 4\nbatch_size = 40\neval_every = 20\nseed = 0\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out_a)]) == 0
    (dir_a,) = [p for p in out_a.iterdir() if p.is_dir()]
    assert main(["train", "--config", str(dir_a / "resolved.cfg"),
                 "--out-dir", str(out_b)]) == 0
    (dir_b,) = [p for p in out_b.iterdir() if p.is_dir()]
    assert (dir_a / "run.csv").read_text() == (dir_b / "run.csv").read_text()

    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(
        "task = matreg\noptimizers = msgds,adam\nlr_grid = 0.01,0.1\n"
        "max_fine_rounds = 1\ntotal_steps = 40\nwarmup_steps = 4\n"
        "batch_size = 40\neval_every = 20\nseed = 0\n"
    )
    out_c, out_d = tmp_path / "c", tmp_path / "d"
    assert main(["sweep", "--config", str(sweep), "--out-dir", str(out_c)]) == 0
    (dir_c,) = [p for p in out_c.iterdir() if p.is_dir()]
    assert main(["sweep", "--config", str(dir_c / "resolved.cfg"),
                 "--out-dir", str(out_d)]) == 0
    (dir_d,) = [p for p in out_d.iterdir() if p.is_dir()]
    for artifact in ("trials.jsonl", "summary.json"):
        assert (dir_c / artifact).read_text() == (dir_d / artifact).read_text()
    best = json.loads((dir_c / "summary.json").read_text())["best"]
    assert best["optimizer"] in ("msgds", "adam")

    # transform round trip: the identity power must copy the file exactly
    src = tmp_path / "m.mat"
    write_matrix(src, np.diag([9.0, 4.0, 1.0, 0.01, 0.0001]))
    dst = tmp_path / "m_out.mat"
    assert main(["transform", str(src), str(dst), "--p", "1"]) == 0
    assert src.read_text() == dst.read_text()
