"""Self-test of the benchmark at a tiny size; it asserts no timings.

    python3 -m pytest -q specbench/test_specbench.py
"""

import functools
from collections import Counter
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from specopt import train  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# Kernel inputs: the spectra, one rank-deficient matrix, three captured updates.
INPUTS = len(run.FULL.spectrum_shapes) * len(run.FULL.conds) + 1 + 3
# Calls that miss their stated accuracy today: p = 1/2 and 1/4 on the
# kappa >= 1e4 spectra and on the captured W1 and W2 updates.
STIFF_FAILURES = 2 * (len(run.FULL.spectrum_shapes) * 2 + 2)


@pytest.fixture(autouse=True)
def _records_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def _run(capsys, workload, trace=0):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, plan=run.TINY) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def _kernel_blocks(workload):
    return run.round_ops(workload).count(("transform", "half"))


def _attempted_per_round(workload):
    calls = {"train": 1, "sweep": 1, "transform": INPUTS, "oracle": len(run.FULL.oracle_shapes)}
    return sum(calls[kind] for kind, _ in run.round_ops(workload))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload, capsys):
    result = _run(capsys, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {n: m["unit"] for n, m in result["metrics"].items()} == _units(SPEC["end_to_end"])
    assert result["attempted"] == _attempted_per_round(workload)
    assert result["failed"] == STIFF_FAILURES * _kernel_blocks(workload)


def test_traced_run_prints_every_per_layer_metric(capsys):
    result = _run(capsys, "charlm-train", trace=1)
    assert result["correct"] is True
    assert {n: m["unit"] for n, m in result["metrics"].items()} == _units(SPEC["per_layer"])


def test_starved_kernels_are_reported_as_failed_calls(capsys, monkeypatch):
    monkeypatch.setattr(run, "spectral_transform",
                        functools.partial(run.spectral_transform, iters=1))
    result = _run(capsys, "kernel-spectra")
    assert result["failed"] > STIFF_FAILURES * _kernel_blocks("kernel-spectra")


def test_a_diverging_optimizer_fails_the_run_and_still_prints_a_result(capsys, monkeypatch):
    monkeypatch.setitem(run.CHARLM_LR, "msgdz", 1e6)
    result = _run(capsys, "charlm-train")
    assert result["correct"] is False
    assert result["failed"] == STIFF_FAILURES * _kernel_blocks("charlm-train") + 1
    assert math.isnan(result["metrics"]["step_ms.zero"]["value"])


def test_parts_tile_each_run_training_call():
    world = run.build(run.TINY, 0)
    bench = run.Bench("charlm-train", run.TINY, world, refs=None)
    original = run.run_training
    bench.install_stamps()
    try:
        bench.op_train("msgds")
    finally:
        bench.stamps.uninstall()
    assert run.run_training is original
    steps = world.charlm["msgds"].total_steps
    counts = Counter()
    for (task, name, _, token), n in bench.train_runs["msgds"].counts.items():
        assert task == "charlm" and token == ("msgds" if name == "/loss_and_grads" else "")
        counts[name] += n
    assert counts["loss_and_grads"] == counts["/loss_and_grads"] == steps
    assert counts["train_loss"] == counts["eval_loss"] == 2  # eval rows at step 0 and at the end
    assert sum(counts.values()) == sum(map(len, bench.parts.values()))
    total = sum(map(sum, bench.parts.values()))
    assert math.isclose(total, bench.train_runs["msgds"].wall_s, rel_tol=1e-9)


def test_tracer_fails_loudly_when_a_layer_name_is_gone(monkeypatch):
    original = run.run_training
    monkeypatch.delattr(train, "step_vector_param")
    tracer = tracing.Tracer()
    with pytest.raises(tracing.MissingLayerError, match="step_vector_param"):
        run.install_tracer(tracer)
    tracer.uninstall()
    assert run.run_training is original
