"""Smoke test of the experiment script in scripts/."""

import importlib.util
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_qcrb_saturation_product_is_one(capsys):
    # a short relaxation already lands on the gamma_b = 0 manifold
    assert _load("qcrb_saturation").main(["--time", "20"]) == 0
    out = capsys.readouterr().out
    simulated = float(re.search(r"product delta\^2 g x QFI\s+= (\S+)", out).group(1))
    algebra = float(re.search(r"closed-form algebra product = (\S+)", out).group(1))
    assert abs(simulated - 1.0) < 1e-2  # criterion 4's bound
    assert algebra == 1.0
