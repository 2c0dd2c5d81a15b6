"""The benchmark script under scripts/ starts: its --help exits 0, every
private circkde name it reaches for exists, and each of its timed layers
and pool comparisons runs.

Its benchmark children reach into circkde's modules, so a renamed helper
breaks it without failing any other test.
"""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("bench_*.py"))


def test_scripts_are_found():
    assert [p.name for p in SCRIPTS] == ["bench_layers.py"]


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


def _load(script):
    spec = importlib.util.spec_from_file_location(script.stem, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_runs_on_one_tree_against_itself():
    # each timed row once at n = 100 and a few samples of each pool
    bench = _load(ROOT / "scripts" / "bench_layers.py")
    plan = {
        "sizes": [100],
        "rounds": 1,
        "repeats": {100: 1},
        "we_repeats": 1,
        "mixture_repeats": 1,
        "pools": {"mc-zoo": 5, "we": 1, "large-n": 1},
    }
    src = str(ROOT / "src")
    report = bench.measure(src, src, plan)
    layers = {name.split(".")[0] for name in report["layers"]}
    assert layers == {
        "special", "kernels", "moments", "mixture", "estimators", "selectors", "simulate", "cli"
    }
    for name, cases in report["layers"].items():
        for case, cell in cases.items():
            assert cell["worst_rel_deviation"] == 0.0, (name, case)
            assert cell["before"]["ms"] > 0.0 and cell["after"]["ms"] > 0.0
    assert report["layers"]["selectors.select_ste"]["n=100"]["after"]["psi_hat_calls"] > 0
    assert set(report["pools"]) == {"mc-zoo", "we", "large-n"}
    for pool in report["pools"].values():
        assert set(pool["selections_that_differ"].values()) == {0}
        assert set(pool["worst_rel_deviation"].values()) == {0.0}
    caches = report["caches"]
    named = caches["cleared_before_each_timed_call"]
    named += caches["built_once_per_interpreter_before_timing"]
    for name in named:
        module, attr = name.split(".")
        assert hasattr(importlib.import_module(f"circkde.{module}"), attr), name
