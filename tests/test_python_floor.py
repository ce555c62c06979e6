"""The package imports and decides under the oldest Python that
pyproject.toml admits (requires-python).  Syntax newer than that floor, such
as possessive quantifiers in a regular expression (re.error "multiple
repeat" before 3.11), fails only when the floor interpreter runs it."""

import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PROGRAM = """
import sys
from omegapower import FiniteWord, full_tree, mu_member, pi_member
print("%d.%d" % sys.version_info[:2])
print(mu_member(FiniteWord("122223220" + "2" * 20 + "3", 4)))
print(pi_member(FiniteWord("122223", 4), full_tree()))
"""


def floor_version():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'requires-python\s*=\s*">=\s*(\d+\.\d+)"', text).group(1)


def test_package_decides_under_the_declared_python_floor():
    version = floor_version()
    python = shutil.which(f"python{version}")
    if python is None:
        pytest.skip(f"no python{version} on PATH")
    # PYENV_VERSION lets a pyenv shim resolve to the floor interpreter
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYENV_VERSION=version)
    probe = subprocess.run(
        [python, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    if probe.returncode != 0 or probe.stdout.strip() != version:
        pytest.skip(f"python{version} does not run here")
    proc = subprocess.run(
        [python, "-c", PROGRAM], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        version,
        "True",
        "PiDecomposition(j=0, blocks=((0, 1, 4, 0),))",
    ]
