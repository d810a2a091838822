"""Command-line surface: artifacts, exit codes, and replayability.

Every test drives ``main(argv)`` in process, so exit codes and artifact
bytes are pinned without spawning subprocesses.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from specopt import cli, oracle
from specopt.cli import (
    _SWEEP_KEYS,
    EXIT_CHECK_FAILED,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_USER_ERROR,
    build_sweep_inputs,
    build_train_config,
    main,
    parse_config_text,
)
from specopt.dense import format_matrix, read_matrix, write_matrix
from specopt.errors import ConfigError
from specopt.sweep import SweepPlan
from specopt.train import CONFIG_FIELDS, CONFIG_KEYS, canonical_config_text

README = Path(__file__).resolve().parents[1] / "README.md"

FIXTURE5 = np.diag([9.0, 4.0, 1.0, 0.01, 0.0001])


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


TRAIN_CFG = """\
# quick matrix-regression run
task = matreg
optimizer = adam
lr_mat = 0.01
total_steps = 40
warmup_steps = 4
batch_size = 40
eval_every = 20
seed = 0
"""

SWEEP_CFG = """\
task = matreg
optimizers = adam
lr_grid = 0.01, 0.1
max_fine_rounds = 1
total_steps = 40
warmup_steps = 4
batch_size = 40
eval_every = 20
seed = 0
"""


def run_dirs(root):
    return [p for p in root.iterdir() if p.is_dir()]


# --- config grammar ---------------------------------------------------------


def test_parse_config_text_grammar():
    text = "a = 1\n\n# comment\nb = two words # trailing\n"
    assert parse_config_text(text) == {"a": "1", "b": "two words"}
    with pytest.raises(ConfigError, match="cfg:2"):
        parse_config_text("a = 1\nnonsense\n", source="cfg")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= 1\n")


def test_build_train_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError, match="unknown config keys: stepz"):
        build_train_config({"task": "matreg", "optimizer": "adam",
                            "lr_mat": "0.1", "stepz": "5"})
    with pytest.raises(ConfigError, match="missing required key 'lr_mat'"):
        build_train_config({"task": "matreg", "optimizer": "adam"})
    with pytest.raises(ConfigError, match="expected an integer"):
        build_train_config({"task": "matreg", "optimizer": "adam",
                            "lr_mat": "0.1", "total_steps": "many"})


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,key", [
    ("train", "divergence_threshold"),
    ("train", "lr_mat"),
    ("sweep", "lr_grid"),
    ("sweep", "refine_factors"),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, command, key, value):
    # divergence_threshold = nan would switch the threshold check off: loss > nan
    # is always false
    cfg = write_cfg(tmp_path, TRAIN_CFG if command == "train" else SWEEP_CFG)
    out = tmp_path / "o"
    code = main([command, "--config", cfg, "--set", f"{key}={value}", "--out-dir", str(out)])
    assert code == EXIT_USER_ERROR
    assert f"{key}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seeds_are_user_errors(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRAIN_CFG)
    out = tmp_path / "o"
    run = ["--out-dir", str(out)]
    for argv in (
        ["train", "--config", cfg, "--seed", "-1", *run],
        ["train", "--config", cfg, "--set", "seed=-1", *run],
        ["train", "--config", write_cfg(tmp_path, TRAIN_CFG.replace("seed = 0", "seed = -1"),
                                        "neg.cfg"), *run],
        ["sweep", "--config", write_cfg(tmp_path, SWEEP_CFG, "sweep.cfg"), "--seed", "-1", *run],
        ["verify", "--seed", "-1"],
    ):
        assert main(argv) == EXIT_USER_ERROR, argv
        err = capsys.readouterr().err
        assert "must be >= 0, got -1" in err, argv  # refused for the seed, not another flag
        assert "Traceback" not in err, argv
    assert not out.exists()


def _readme_config_rows() -> dict[str, str]:
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            key_cell, default_cell = line.strip("|").split("|")[:2]
            rows[key_cell.split("`")[1]] = default_cell.strip()
    return rows


def test_readme_config_table_matches_the_field_table():
    rows = _readme_config_rows()
    assert set(rows) == CONFIG_KEYS | _SWEEP_KEYS
    cfg = build_train_config({"task": "matreg", "optimizer": "adam", "lr_mat": "0.01"})
    defaults = parse_config_text(canonical_config_text(cfg))
    for f in CONFIG_FIELDS:
        assert rows[f.key] == ("required" if f.required else f"`{defaults[f.key]}`"), f.key
    plan = SweepPlan(coarse_grid=(1.0,))
    assert rows["lr_grid"] == "required"
    assert rows["optimizers"] == "`all`"
    assert rows["refine_factors"] == f"`{','.join(map(repr, plan.refine_factor_grid))}`"
    assert rows["max_fine_rounds"] == f"`{plan.max_fine_rounds}`"


def test_build_sweep_inputs_defaults_to_all_optimizers():
    cfg, plan, optimizers = build_sweep_inputs(
        {"task": "matreg", "lr_grid": "0.1,0.01"}
    )
    assert len(optimizers) == 8
    assert plan.coarse_grid == (0.01, 0.1)  # sorted on the way in
    assert cfg.hp.lr_mat == 0.01
    assert cfg.optimizer == optimizers[0]


# --- transform --------------------------------------------------------------


def test_transform_identity_power_copies_bytes(tmp_path, capsys):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    src = tmp_path / "in.mat"
    dst = tmp_path / "out.mat"
    write_matrix(src, a)
    assert main(["transform", str(src), str(dst), "--p", "1"]) == EXIT_OK
    assert dst.read_text() == format_matrix(a)
    sidecar = json.loads((tmp_path / "out.mat.diag.json").read_text())
    assert sidecar["method"] == "ns"
    assert sidecar["exponent"] == 1.0
    assert sidecar["iterations"] == 0
    assert sidecar["calibrated_rel_tol"] == 0.0
    assert "wrote" in capsys.readouterr().out


def test_transform_reads_a_numeric_exponent_by_value(tmp_path):
    src = tmp_path / "in.mat"
    write_matrix(src, np.random.default_rng(0).standard_normal((6, 4)))
    for token, canonical in (("1.0", "1"), (".5", "0.5"), ("0.50", "0.5")):
        outs = [tmp_path / f"{name}.mat" for name in (token, canonical)]
        for name, out in zip((token, canonical), outs):
            assert main(["transform", str(src), str(out), "--p", name]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes(), token


def test_transform_oracle_flattens_the_diagonal_fixture(tmp_path):
    src = tmp_path / "in.mat"
    dst = tmp_path / "out.mat"
    write_matrix(src, FIXTURE5)
    code = main(["transform", str(src), str(dst), "--p", "0.5", "--method", "oracle"])
    assert code == EXIT_OK
    got = read_matrix(dst)
    assert np.allclose(got, np.diag([3.0, 2.0, 1.0, 0.1, 0.01]), atol=1e-9)
    sidecar = json.loads((tmp_path / "out.mat.diag.json").read_text())
    assert sidecar["method"] == "oracle"
    assert sidecar["calibrated_rel_tol"] is None
    assert sidecar["iterations"] is None
    assert sidecar["alpha"] is None
    assert sidecar["residuals"] == []
    for extra in ([], ["--zero-method", "cubic"]):  # no kernel's band, whichever is named
        assert main(["transform", str(src), str(dst), "--p", "0", "--method", "oracle"]
                    + extra) == EXIT_OK
        sidecar = json.loads((tmp_path / "out.mat.diag.json").read_text())
        assert sidecar["calibrated_rel_tol"] is None


def test_transform_ns_matches_oracle_within_published_tolerance(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((8, 6))
    src = tmp_path / "in.mat"
    write_matrix(src, a)
    for p, extra in (("0.5", []), ("0.25", []), ("0", []), ("0", ["--zero-method", "cubic"])):
        ns_out = tmp_path / f"ns{p}.mat"
        or_out = tmp_path / f"or{p}.mat"
        assert main(["transform", str(src), str(ns_out), "--p", p] + extra) == EXIT_OK
        assert main(["transform", str(src), str(or_out), "--p", p,
                     "--method", "oracle"]) == EXIT_OK
        sidecar = json.loads((tmp_path / f"ns{p}.mat.diag.json").read_text())
        got = read_matrix(ns_out)
        want = read_matrix(or_out)
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel <= sidecar["calibrated_rel_tol"], (p, extra)
        assert sidecar["iterations"] > 0


def test_transform_sidecar_lists_each_step_residual(tmp_path):
    src = tmp_path / "in.mat"
    write_matrix(src, FIXTURE5)
    assert main(["transform", str(src), str(tmp_path / "out.mat"), "--p", "0.25"]) == EXIT_OK
    sidecar = json.loads((tmp_path / "out.mat.diag.json").read_text())
    assert sorted(sidecar) == ["alpha", "calibrated_rel_tol", "exponent", "input_shape",
                               "iterations", "method", "residuals", "version"]
    assert len(sidecar["residuals"]) == sidecar["iterations"]  # one per step of the one pass


def test_transform_user_errors_exit_two(tmp_path, capsys):
    dst = str(tmp_path / "out.mat")
    assert main(["transform", str(tmp_path / "nope.mat"), dst, "--p", "1"]) == EXIT_USER_ERROR
    bad = tmp_path / "bad.mat"
    bad.write_text("not a matrix\n")
    assert main(["transform", str(bad), dst, "--p", "1"]) == EXIT_USER_ERROR
    good = tmp_path / "good.mat"
    write_matrix(good, np.eye(2))
    assert main(["transform", str(good), dst, "--p", "0.3"]) == EXIT_USER_ERROR
    assert "error:" in capsys.readouterr().err


def test_transform_numeric_failure_exits_three_with_diagnostics(tmp_path, capsys):
    src = tmp_path / "flat.mat"
    write_matrix(src, np.ones((4, 4)))  # rank one: the cubic polar stalls
    code = main(["transform", str(src), str(tmp_path / "out.mat"),
                 "--p", "0", "--zero-method", "cubic"])
    assert code == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "iterations=40 " in err and "residuals=['" in err
    assert "alpha=16.0 " in err  # ||O^T O||_F, the divisor, as for every kernel


def test_transform_cubic_names_an_overflowed_gram(tmp_path, capsys):
    src = tmp_path / "huge.mat"
    write_matrix(src, np.full((4, 3), 1e160))
    code = main(["transform", str(src), str(tmp_path / "out.mat"),
                 "--p", "0", "--zero-method", "cubic"])
    assert code == EXIT_USER_ERROR
    assert "Gram matrix overflowed" in capsys.readouterr().err


def test_transform_oracle_out_of_sweeps_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "_SWEEP_CAP", 1)
    src = tmp_path / "in.mat"
    write_matrix(src, np.random.default_rng(0).standard_normal((6, 4)))
    code = main(["transform", str(src), str(tmp_path / "out.mat"),
                 "--p", "0.5", "--method", "oracle"])
    assert code == EXIT_DIVERGED
    assert "numerical failure:" in capsys.readouterr().err


# --- verify -----------------------------------------------------------------


def test_verify_all_suites_pass(capsys):
    assert main(["verify", "--seed", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "checks passed" in out


def test_verify_reports_failures_at_starved_iteration_count(capsys):
    assert main(["verify", "kernels", "--iters", "1"]) == EXIT_CHECK_FAILED
    assert "FAIL" in capsys.readouterr().out


def test_verify_rejects_unknown_suite(capsys):
    assert main(["verify", "bogus"]) == EXIT_USER_ERROR


@pytest.mark.parametrize("value", ["0", "-1"])
def test_iters_must_be_a_positive_integer(tmp_path, capsys, value):
    src = tmp_path / "in.mat"
    write_matrix(src, FIXTURE5)
    dst = tmp_path / "out.mat"
    for argv in (
        ["verify", "kernels", "--iters", value],
        ["transform", str(src), str(dst), "--p", "0.5", "--iters", value],
    ):
        assert main(argv) == EXIT_USER_ERROR, argv
        assert f"argument --iters: must be >= 1, got {value}" in capsys.readouterr().err
    assert not dst.exists()


def test_subcommands_reject_flags_they_do_not_read(tmp_path, capsys):
    src = tmp_path / "in.mat"
    write_matrix(src, FIXTURE5)
    dst = tmp_path / "out.mat"
    transform = ["transform", str(src), str(dst), "--p", "1"]
    unread = (["--config", str(tmp_path / "nope.cfg")], ["--set", "bogus=1"],
              ["--out-dir", str(tmp_path / "x")])
    for argv in (
        *(["verify", "optimizers", *flag] for flag in unread),
        *([*transform, *flag] for flag in (*unread, ["--seed", "1"])),
    ):
        assert main(argv) == EXIT_USER_ERROR, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
    assert not dst.exists()
    assert not (tmp_path / "x").exists()


# --- train ------------------------------------------------------------------


def test_train_writes_replayable_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRAIN_CFG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["train", "--config", cfg, "--out-dir", str(out_a)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "optimizer: adam" in stdout
    assert "task: matreg" in stdout
    assert "outcome: completed" in stdout
    assert "final eval loss:" in stdout
    digest = next(line.split(": ")[1] for line in stdout.splitlines()
                  if line.startswith("digest: "))
    assert len(digest) == 64

    (run_dir,) = run_dirs(out_a)
    assert run_dir.name == digest[:12]
    csv_a = (run_dir / "run.csv").read_text()
    assert csv_a.startswith(f"# config_digest={digest}\n")
    assert "# optimizer=adam\n" in csv_a
    assert "# outcome=completed\n" in csv_a

    # replaying the resolved config bit-reproduces the run
    resolved = run_dir / "resolved.cfg"
    assert main(["train", "--config", str(resolved), "--out-dir", str(out_b)]) == EXIT_OK
    capsys.readouterr()
    (run_dir_b,) = run_dirs(out_b)
    assert run_dir_b.name == run_dir.name
    assert (run_dir_b / "run.csv").read_text() == csv_a
    assert (run_dir_b / "resolved.cfg").read_text() == resolved.read_text()


def test_train_set_overrides_win_and_muon_alias_echoes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRAIN_CFG)
    code = main(["train", "--config", cfg, "--out-dir", str(tmp_path / "o"),
                 "--set", "optimizer=muon", "--set", "lr_mat=0.05", "--seed", "3"])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "optimizer: msgdz (muon)" in stdout
    (run_dir,) = run_dirs(tmp_path / "o")
    resolved = (run_dir / "resolved.cfg").read_text()
    assert "optimizer = msgdz\n" in resolved
    assert "lr_mat = 0.05\n" in resolved
    assert "seed = 3\n" in resolved  # --seed beats the file's seed = 0


def test_train_user_errors_exit_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRAIN_CFG)
    out = str(tmp_path / "o")
    assert main(["train", "--config", cfg, "--set", "stepz=1",
                 "--out-dir", out]) == EXIT_USER_ERROR
    assert main(["train", "--config", cfg, "--set", "total_steps=0",
                 "--out-dir", out]) == EXIT_USER_ERROR
    assert main(["train", "--config", cfg, "--set", "optimizer=sgd",
                 "--out-dir", out]) == EXIT_USER_ERROR
    assert main(["train", "--config", str(tmp_path / "missing.cfg"),
                 "--out-dir", out]) == EXIT_USER_ERROR
    assert main(["train", "--out-dir", out]) == EXIT_USER_ERROR  # no config at all
    assert "error:" in capsys.readouterr().err


def test_train_divergence_exits_three(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRAIN_CFG)
    code = main(["train", "--config", cfg, "--out-dir", str(tmp_path / "o"),
                 "--set", "optimizer=msgd", "--set", "lr_mat=1e6"])
    assert code == EXIT_DIVERGED
    captured = capsys.readouterr()
    assert "outcome: diverged" in captured.out
    assert "diverged at step" in captured.err
    (run_dir,) = run_dirs(tmp_path / "o")
    assert "# outcome=diverged" in (run_dir / "run.csv").read_text()


# --- sweep ------------------------------------------------------------------


def test_sweep_writes_consistent_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    out_a = tmp_path / "a"
    assert main(["sweep", "--config", cfg, "--out-dir", str(out_a)]) == EXIT_OK
    capsys.readouterr()
    (run_dir,) = run_dirs(out_a)

    lines = (run_dir / "trials.jsonl").read_text().splitlines()
    trials = [json.loads(line) for line in lines]
    assert len(trials) >= 2
    for row in trials:
        assert sorted(row) == ["diverged_step", "final_eval_loss", "lr",
                               "optimizer", "outcome", "run_digest"]
        assert row["optimizer"] == "adam"

    summary = json.loads((run_dir / "summary.json").read_text())
    assert sorted(summary) == ["all_diverged", "best", "config_digest",
                               "per_optimizer", "version"]
    assert summary["all_diverged"] is False
    assert summary["best"]["optimizer"] == "adam"
    per = summary["per_optimizer"]["adam"]
    assert sorted(per) == ["best_eval_loss", "best_lr", "labels",
                           "span_decades", "span_range"]
    assert per["best_lr"] == summary["best"]["lr"]
    assert len(per["labels"]) == len(trials)

    # replay from the resolved config reproduces both artifacts exactly
    out_b = tmp_path / "b"
    resolved = run_dir / "resolved.cfg"
    assert main(["sweep", "--config", str(resolved), "--out-dir", str(out_b)]) == EXIT_OK
    capsys.readouterr()
    (run_dir_b,) = run_dirs(out_b)
    assert run_dir_b.name == run_dir.name
    assert (run_dir_b / "trials.jsonl").read_text() == (run_dir / "trials.jsonl").read_text()
    assert (run_dir_b / "summary.json").read_text() == (run_dir / "summary.json").read_text()


def test_sweep_all_diverged_exits_three(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    code = main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / "o"),
                 "--set", "optimizers=msgd", "--set", "lr_grid=1e6",
                 "--set", "max_fine_rounds=0"])
    assert code == EXIT_DIVERGED
    assert "every trial diverged" in capsys.readouterr().err
    (run_dir,) = run_dirs(tmp_path / "o")
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["all_diverged"] is True
    assert summary["best"] is None
    assert summary["per_optimizer"]["msgd"]["best_lr"] is None


def test_sweep_repeated_lr_or_factor_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    for override, message in (("lr_grid=0.1,0.1,1", "strictly ascending"),
                              ("refine_factors=0.5,0.5", "repeat a factor")):
        code = main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / "o"),
                     "--set", override])
        assert code == EXIT_USER_ERROR, override
        assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_repeated_optimizer_exits_two(tmp_path, capsys):
    # muon is msgdz: naming both would run every trial twice.
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    code = main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / "o"),
                 "--set", "optimizers=msgdz,muon"])
    assert code == EXIT_USER_ERROR
    assert "sweep names optimizer msgdz (muon) twice" in capsys.readouterr().err
    assert not list((tmp_path / "o").rglob("trials.jsonl"))


@pytest.mark.parametrize("command,overrides,message", [
    ("train", ["task=foo"], "unknown task 'foo'"),
    ("train", ["task=charlm", "corpus={missing}"], "No such file or directory"),
    ("sweep", ["optimizers=msgdz,muon"], "names optimizer msgdz (muon) twice"),
    ("train", ["corpus={missing}"], "only task charlm reads a corpus"),
    ("sweep", ["corpus={missing}"], "only task charlm reads a corpus"),
])
def test_rejected_config_leaves_no_run_directory(tmp_path, capsys, command, overrides, message):
    cfg = write_cfg(tmp_path, TRAIN_CFG if command == "train" else SWEEP_CFG)
    sets = [arg for text in overrides
            for arg in ("--set", text.format(missing=tmp_path / "missing.txt"))]
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out-dir", str(out), *sets]) == EXIT_USER_ERROR
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["train-corpus", "sweep-corpus", "config", "matrix"])
def test_an_undecodable_input_file_exits_two_naming_the_file(tmp_path, capsys, source):
    # Exit 1 belongs to a failed verification; a file that is not text is a user error.
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("2 2\n1.0 2.0\n3.0 4.0 caf\xe9\n".encode("latin-1") * 40)
    out = tmp_path / "o"
    if source == "matrix":
        argv = ["transform", str(bad), str(out), "--p", "1"]
    elif source == "config":
        argv = ["train", "--config", str(bad), "--out-dir", str(out)]
    else:
        command = source.split("-")[0]
        cfg = write_cfg(tmp_path, TRAIN_CFG if command == "train" else SWEEP_CFG)
        argv = [command, "--config", cfg, "--out-dir", str(out),
                "--set", "task=charlm", "--set", f"corpus={bad}"]
    assert main(argv) == EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not ") and " text (" in err
    assert not out.exists()


@pytest.mark.parametrize("command,runner", [("train", "run_training"), ("sweep", "run_sweep")])
def test_an_unwritable_out_dir_fails_before_the_run(tmp_path, capsys, monkeypatch, command,
                                                     runner):
    # A path below a regular file can never hold the run directory.
    cfg = write_cfg(tmp_path, TRAIN_CFG if command == "train" else SWEEP_CFG)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    ran = []
    monkeypatch.setattr(cli, runner, lambda *args: ran.append(args))
    for out in (blocker / "o", blocker):
        assert main([command, "--config", cfg, "--out-dir", str(out)]) == EXIT_USER_ERROR
        assert "is not a directory" in capsys.readouterr().err
    assert ran == []
    assert blocker.read_text() == "not a directory\n"


def test_sweep_requires_lr_grid(tmp_path, capsys):
    code = main(["sweep", "--set", "task=matreg",
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_USER_ERROR
    assert "lr_grid" in capsys.readouterr().err


# --- argparse surface -------------------------------------------------------


def test_bad_invocations_exit_two(capsys):
    assert main([]) == EXIT_USER_ERROR
    assert main(["transform"]) == EXIT_USER_ERROR
    assert main(["no-such-command"]) == EXIT_USER_ERROR
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "transform" in capsys.readouterr().out
