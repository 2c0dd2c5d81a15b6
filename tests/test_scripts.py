"""The benchmark scripts under scripts/ start: each one's --help exits 0,
and every private circkde name they reach for exists.

The scripts import helpers from one another by path (``from bench_lcv
import ...``), and their benchmark children (code in strings) reach into
circkde's modules, so a renamed helper breaks them without failing any
other test.
"""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("bench_*.py"))


def test_scripts_are_found():
    assert len(SCRIPTS) >= 4


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_help_exits_zero(script, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(script), "--help"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


# "from circkde import estimators as est" and "import circkde.estimators as est"
_MODULE_ALIAS = re.compile(r"(?:from circkde import (\w+)|import circkde\.(\w+)) as (\w+)")
_FROM_IMPORT = re.compile(r"from circkde\.(\w+) import \(?([\w\s,]+)\)?")


def private_names(text):
    """The (module, name) pairs of every private circkde name in ``text``:
    ``alias._name`` for a module alias, and ``from circkde.module import
    _name``."""
    found = set()
    for m in _MODULE_ALIAS.finditer(text):
        module, alias = m.group(1) or m.group(2), m.group(3)
        for name in re.findall(rf"\b{alias}\.(_\w+)", text):
            found.add((module, name))
    for m in _FROM_IMPORT.finditer(text):
        for name in re.findall(r"\b_\w+", m.group(2)):
            found.add((m.group(1), name))
    return found


def test_private_names_are_found():
    text = (
        "from circkde import estimators as est\n"
        "import circkde.kernels as kern\n"
        "from circkde.selectors import (SELECTORS,\n    _lcv_table)\n"
        "est._gone(x); kern._alpha_block; est.kde\n"
    )
    assert private_names(text) == {
        ("estimators", "_gone"),
        ("kernels", "_alpha_block"),
        ("selectors", "_lcv_table"),
    }


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_private_names_exist(script):
    for module, name in sorted(private_names(script.read_text())):
        assert hasattr(importlib.import_module(f"circkde.{module}"), name), f"{module}.{name}"
