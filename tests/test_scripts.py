"""The example scripts run end to end with their default arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import aesdfa

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(aesdfa.__file__).resolve().parent.parent)}
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / name)], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.parametrize("name", ["end_to_end_attack.py", "static_fault_study.py"])
def test_attack_scripts_recover_the_key(name):
    assert "matches target: True" in run_script(name).splitlines()[-1]


def test_master_slot_bust_is_exact():
    sets = [line for line in run_script("master_slot_bust.py").splitlines() if line.startswith("set ")]
    assert len(sets) == 4
    assert all("[exact]" in line for line in sets)
