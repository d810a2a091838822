"""Smoke tests of the narrative scripts under ``demos/``.

Each demo is loaded from its file and its ``main()`` run in process; the
test asserts that it printed its table header. The optimizer shoot-out
trains eight 400-step runs, so its test narrows ``RATES`` to one optimizer.
"""

import importlib.util
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def load_demo(name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def printed_rows(capsys):
    return [line.split() for line in capsys.readouterr().out.splitlines()]


def test_spectrum_flattening_prints_each_power_table(capsys):
    load_demo("spectrum_flattening").main()
    rows = printed_rows(capsys)
    assert rows.count(["p", "condition", "singular", "values"]) == 2
    assert ["0.0", "1"] in [row[:2] for row in rows]


def test_kernel_accuracy_prints_its_condition_ladder(capsys):
    load_demo("kernel_accuracy").main()
    rows = printed_rows(capsys)
    assert rows[0] == ["condition", "half-power", "quarter-power", "cubic", "polar",
                       "quintic", "band"]
    assert [row[0] for row in rows[1:5]] == ["2", "10", "50", "100"]


def test_optimizer_shootout_runs_one_optimizer(capsys, monkeypatch):
    demo = load_demo("optimizer_shootout")
    monkeypatch.setattr(demo, "RATES", {"msgd": 3.0})
    demo.main()
    rows = printed_rows(capsys)
    assert rows[0] == ["optimizer", "peak", "lr", "train", "held-out", "outcome"]
    assert rows[1][0] == "msgd"
    assert rows[1][-1] == "completed"
