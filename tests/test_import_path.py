"""Cold start: the CLI's import path and its commands on the bundled crash
data load no scipy module; quadrature imports scipy.integrate on demand.

Each check runs in a fresh interpreter, since the test session itself has
imported those modules long before.
"""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import circkde

HEAVY = ("scipy.optimize", "scipy.integrate", "scipy.linalg", "scipy.sparse")

_CHILD = r"""
import contextlib, io, json, sys
from importlib import resources

import circkde.cli

heavy = json.loads(sys.argv[1])
loaded = {}
csv = str(resources.files("circkde") / "data" / "crash_times.csv")
commands = [
    ["select", "--method", "dpi", "--mmax", "3"],
    ["select", "--method", "ste"],
    ["density", "--method", "dpi"],
    ["modes", "--method", "dpi"],
]


def present():
    return sorted(m for m in sys.modules if m in heavy or m.startswith(tuple(h + "." for h in heavy)))


loaded["import"] = present()
for sub, *options in commands:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = circkde.cli.main([sub, csv, "--format", "hhmm", "--column", "time", *options])
    assert code == 0 and out.getvalue(), (sub, options)
    loaded[" ".join([sub, *options])] = present()

from circkde.special import integrate_circle

value = integrate_circle(lambda t: t * t)
print(json.dumps({"loaded": loaded, "integral": value, "integrate_loaded": "scipy.integrate" in sys.modules}))
"""


def _run_child(heavy=HEAVY):
    src = str(Path(circkde.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(heavy)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_commands_keep_heavy_scipy_off_the_import_path():
    report = _run_child()
    assert list(report["loaded"]) == [
        "import",
        "select --method dpi --mmax 3",
        "select --method ste",
        "density --method dpi",
        "modes --method dpi",
    ]
    for stage, modules in report["loaded"].items():
        assert modules == [], stage
    # quadrature still works once asked for, importing scipy.integrate then
    assert report["integrate_loaded"]
    assert math.isclose(report["integral"], 2 * math.pi**3 / 3, rel_tol=1e-10)


def test_cli_commands_load_no_scipy_module():
    # "scipy" matches the package itself and every scipy.* submodule
    report = _run_child(("scipy",))
    assert len(report["loaded"]) == 5
    for stage, modules in report["loaded"].items():
        assert modules == [], stage
    assert report["integrate_loaded"]
    assert math.isclose(report["integral"], 2 * math.pi**3 / 3, rel_tol=1e-10)


# Every optional parameter of the functions that circkde exports.  A
# numerical budget with one value in use is a module constant, not a knob;
# a new optional parameter fails this test until it is listed here.
OPTIONAL_PARAMETERS = {
    "default_grid": ("num",),
    "grid_ise": ("points", "weights"),
    "kde": ("thetas",),
    "kde_deriv": ("thetas",),
    "kde_values": ("deriv_order",),
    "psi_hat": ("method",),
    "concentration_from_bandwidth": ("exact",),
    "derivative_weights": ("deriv_order",),
    "kernel_value": ("deriv_order",),
    "roughness": ("deriv_order", "power"),
    "fit_em": ("seed", "tol"),
    "select_aic": ("seed",),
    "select_gold": ("grid",),
    "emit_table": ("format",),
    "run_monte_carlo": ("seed", "nu_grid", "cfg"),
    "bessel_ratio": ("order",),
    "find_root": ("tol", "max_iter", "g_lo", "g_hi"),
}


def test_optional_parameters_of_public_functions_are_listed():
    found = {}
    for name in circkde.__all__:
        obj = getattr(circkde, name)
        if not callable(obj) or inspect.isclass(obj):
            continue
        params = inspect.signature(obj).parameters.values()
        optional = tuple(p.name for p in params if p.default is not inspect.Parameter.empty)
        if optional:
            found[name] = optional
    assert found == OPTIONAL_PARAMETERS
    assert sum(map(len, found.values())) == 25
