"""The documented package surface: the README quick start and ``import specopt``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import specopt

README = Path(__file__).resolve().parents[1] / "README.md"

QUICK_START_NAMES = {
    "HyperParams",
    "SpectralExponent",
    "TrainConfig",
    "parse_optimizer",
    "run_training",
    "spectral_transform",
}


def test_readme_quick_start_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {})
    assert float(capsys.readouterr().out) < 4.56  # below the uniform-guess loss ln(96)


def test_package_exports_exactly_the_quick_start_names():
    assert set(specopt.__all__) == QUICK_START_NAMES
    assert all(hasattr(specopt, name) for name in QUICK_START_NAMES)
    assert specopt.__version__


def test_import_loads_no_checks_cli_sweeps_or_oracle():
    probe = "import sys, specopt; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    loaded = set(out.split())
    assert "specopt.train" in loaded
    for name in ("specopt.verify", "specopt.cli", "specopt.sweep", "specopt.oracle"):
        assert name not in loaded
