"""The benchmark's three workloads: seeded inputs, one op each, and the
fingerprint of each op's output that is checked against the stored
reference.

Every op's input comes from a pool whose references are stored in
``bench/reference/``.  The run's ``--seed`` picks the pool entry of op i
through ``SeedSequence([seed, i])``, so any seed gives a checkable input
sequence, the same seed gives byte-identical inputs, and another seed
gives another sequence.

Functions of the package are always looked up through their module at
call time, so the trace wrappers installed by ``tracing.py`` see every
call the op makes.
"""

import json
import math
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DATA_FILE = ROOT / "src" / "circkde" / "data" / "crash_times.csv"

# Tolerances for outputs against the reference.  RTOL leaves room for the
# STE root (brentq xtol 1e-8 on h ~ 1e-2) to move when a functional changes
# in its last digits; ATOL is what a reference of exactly 0 allows (the
# gold-standard ISE on the uniform model); mode angles come from a
# bisection with tolerance 1e-6.
RTOL = 1e-6
ATOL = 1e-12
ARRAY_ATOL_SCALE = 1e-9
ANGLE_ATOL = 1e-5

MC_MODELS = ("U", "VM2", "VM-MIX2", "VM-MIX3", "SKEW")
MC_SELECTORS = ("rt", "dpi", "ste", "lcv")
MC_N = 100
MC_POOL = 256

LARGE_N = 10_000
LARGE_POOL = 128
LARGE_POOL_TAG = 10_000  # keeps the large-n sample streams apart from replicate seeds
LARGE_MUS = np.array([0.0, 2.0 * np.pi / 3.0, -2.0 * np.pi / 3.0])
LARGE_KAPPA = 10.0
FINGERPRINT_STRIDE = 32

CLI_ENTRY = "import sys; from circkde.cli import main; sys.exit(main())"
CLI_INPUT = ["--format", "hhmm", "--column", "time"]
CLI_COMMANDS = {
    "select_dpi_mmax3": ["select", "--method", "dpi", "--mmax", "3"],
    "select_ste": ["select", "--method", "ste"],
    "density": ["density", "--method", "dpi"],
    "modes": ["modes", "--method", "dpi"],
}


def pool_index(seed, op_index, size):
    """Pool entry of op ``op_index`` in the run with workload seed ``seed``."""
    state = np.random.SeedSequence([seed, op_index]).generate_state(1, np.uint64)
    return int(state[0] % size)


def load_reference(name):
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)


def mismatches(ref, out, path="", atol=ATOL):
    """Differences between an output fingerprint and its reference.

    Every key of the reference must be present (new keys are allowed);
    numbers agree within RTOL and ATOL, a list of numbers within an
    absolute tolerance scaled to its largest reference entry; everything
    else is compared exactly."""
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return [f"{path}: expected an object"]
        found = []
        for key, value in ref.items():
            if key not in out:
                found.append(f"{path}.{key}: missing")
                continue
            key_atol = ANGLE_ATOL if key == "angle" else atol
            found.extend(mismatches(value, out[key], f"{path}.{key}", key_atol))
        return found
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        if ref and all(_is_number(v) for v in ref):
            scale = max((abs(v) for v in ref if not math.isnan(v)), default=0.0)
            atol = max(atol, ARRAY_ATOL_SCALE * scale)
        found = []
        for k, (a, b) in enumerate(zip(ref, out)):
            found.extend(mismatches(a, b, f"{path}[{k}]", atol))
        return found
    if _is_number(ref) and _is_number(out):
        if math.isnan(ref) or math.isnan(out):
            ok = math.isnan(ref) and math.isnan(out)
        else:
            ok = abs(out - ref) <= RTOL * abs(ref) + atol
        return [] if ok else [f"{path}: {out!r} != reference {ref!r}"]
    if ref != out or type(ref) is not type(out):
        return [f"{path}: {out!r} != reference {ref!r}"]
    return []


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _array_fingerprint(values):
    values = np.asarray(values, dtype=float)
    return {
        "l1": float(np.sum(np.abs(values))),
        "l2sq": float(np.sum(values * values)),
        "samples": [float(v) for v in values[::FINGERPRINT_STRIDE]],
    }


class McZoo:
    """One op is one Monte-Carlo replicate of the paper's simulation study:
    rt, dpi, ste and lcv (gs added by the harness) on an n = 100 sample,
    cycling through the five built-in models."""

    name = "mc-zoo"
    cycle = len(MC_MODELS)

    def __init__(self, pkg):
        self.simulate = pkg.simulate
        self.models = {m.name: m for m in self.simulate.builtin_models()}

    def input(self, seed, i):
        return MC_MODELS[i % self.cycle], pool_index(seed, i, MC_POOL)

    def warmup_input(self):
        return MC_MODELS[0], 0

    def signature(self, inp):
        return f"{inp[0]}:{inp[1]};".encode()

    def run(self, inp):
        model, replicate_seed = inp
        results = self.simulate.run_monte_carlo(
            self.models[model], list(MC_SELECTORS), n=MC_N, replicates=1, seed=replicate_seed
        )
        return {
            r.selector: {
                "ise": r.mean_ise,
                "fallbacks": r.fallback_count,
                "errors": r.error_count,
            }
            for r in results
        }

    @staticmethod
    def problems(out):
        return [f"{sel}: error_count {cell['errors']}" for sel, cell in out.items() if cell["errors"]]

    @staticmethod
    def expected(ref, inp):
        model, replicate_seed = inp
        return ref["cells"][model][replicate_seed]


def large_angles(k):
    """Pool sample k: n = 10 000 angles from the VM-MIX3 truth (three von
    Mises components, kappa 10, equal weights), drawn by the benchmark."""
    rng = np.random.default_rng(np.random.SeedSequence([LARGE_POOL_TAG, k]))
    comp = rng.integers(0, len(LARGE_MUS), size=LARGE_N)
    return rng.vonmises(LARGE_MUS[comp], LARGE_KAPPA)


class LargeN:
    """One op analyses one fresh n = 10 000 sample: rt, dpi and ste on the
    same CircularSample, then kde and kde_deriv(r=1) on the default
    512-point grid at the DPI concentration."""

    name = "large-n"
    cycle = 1

    def __init__(self, pkg):
        self.estimators = pkg.estimators
        self.selectors = pkg.selectors
        self.kernels = pkg.kernels

    def input(self, seed, i):
        return pool_index(seed, i, LARGE_POOL)

    def warmup_input(self):
        return 0

    def signature(self, inp):
        return large_angles(inp).tobytes()

    def run(self, inp):
        est, sel = self.estimators, self.selectors
        sample = est.CircularSample.from_data(large_angles(inp))
        cfg = sel.SelectorConfig()
        out = {}
        for method in ("rt", "dpi", "ste"):
            s = getattr(sel, f"select_{method}")(sample, cfg)
            out[method] = {"nu": s.nu, "h": s.h, "fallback_uniform": s.fallback_uniform}
        spec = self.kernels.KernelSpec.from_nu(cfg.kernel_family, out["dpi"]["nu"])
        out["kde"] = _array_fingerprint(est.kde(sample, spec).values)
        out["kde_deriv"] = _array_fingerprint(est.kde_deriv(sample, spec, 1).values)
        return out

    @staticmethod
    def problems(out):
        return []

    @staticmethod
    def expected(ref, inp):
        return ref["samples"][inp]


def cli_argv(command):
    sub, *options = CLI_COMMANDS[command]
    return [sub, str(DATA_FILE), *CLI_INPUT, *options]


def cli_fingerprint(command, stdout):
    """Parsed CLI output: the JSON document, or the density CSV's metadata
    and columns."""
    if command != "density":
        return json.loads(stdout)
    meta, thetas, values = {}, [], []
    for line in stdout.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif line and line != "theta,value":
            t, v = line.split(",")
            thetas.append(float(t))
            values.append(float(v))
    meta["nu"] = float(meta.get("nu", "nan"))
    return {"meta": meta, "theta": thetas, "value": values}


class CliCrash:
    """One op is one cold ``circkde`` process on the bundled crash-time data.
    Each cycle runs the four commands in an order drawn from the seed."""

    name = "cli-crash"
    cycle = len(CLI_COMMANDS)

    def input(self, seed, i):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i // self.cycle]))
        order = rng.permutation(self.cycle)
        return list(CLI_COMMANDS)[int(order[i % self.cycle])]

    def warmup_input(self):
        return "select_ste"

    def signature(self, inp):
        return f"{inp};".encode()

    @staticmethod
    def problems(out):
        return []

    @staticmethod
    def expected(ref, inp):
        return ref["commands"][inp]


WORKLOADS = {w.name: w for w in (McZoo, LargeN, CliCrash)}


def inputs_reproducible(workload, seed, count):
    """(same seed gives byte-identical inputs, next seed gives different ones)
    over the first ``count`` ops."""

    def signature(s):
        return b"".join(workload.signature(workload.input(s, i)) for i in range(count))

    first = signature(seed)
    return first == signature(seed), first != signature(seed + 1)
