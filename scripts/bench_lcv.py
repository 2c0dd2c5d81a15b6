"""Time select_lcv on two source trees and write BENCH_lcv.json.

    python3 scripts/bench_lcv.py --before OLD/src --after src

Each tree is imported in its own interpreter with BLAS pinned to one
thread.  For each n in SIZES, select_lcv runs on one VM-MIX2 sample (von
Mises kernel, default config): once cold (the candidate table is built)
and then best of REPEATS.  It also runs on every mc-zoo pool sample (five
zoo models, replicate seeds 0-255, n = 100, drawn as run_monte_carlo draws
them), and the report gives the worst relative nu deviation between the
trees.  A "before" size whose cold call, projected as O(n^2) from the
last size timed, would pass BUDGET_S is marked "not run", as are the
sizes above it.  The report is written to BENCH_lcv.json at the
repository root.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

SIZES = (100, 1000, 10000, 100000)
REPEATS = 3
BUDGET_S = 600.0
OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_lcv.json")

_CHILD = r"""
import json, sys, time
import numpy as np
import circkde
from circkde.selectors import SelectorConfig, select_lcv
from circkde.simulate import builtin_models

args = json.loads(sys.argv[1])
cfg = SelectorConfig()
models = {m.name: m for m in builtin_models()}
out = {"numpy": np.__version__, "times": {}, "nu": {}, "pool": []}
for n in args["sizes"]:
    rng = np.random.default_rng(np.random.SeedSequence([20221, n]))
    sample = models["VM-MIX2"].sampler(rng, n)
    t0 = time.perf_counter()
    nu = select_lcv(sample, cfg).nu
    cold = time.perf_counter() - t0
    best = cold
    for _ in range(args["repeats"] - 1):
        t0 = time.perf_counter()
        select_lcv(sample, cfg)
        best = min(best, time.perf_counter() - t0)
    out["times"][str(n)] = {"cold_s": cold, "best_s": best}
    out["nu"][str(n)] = nu
if args["pool"]:
    for model in builtin_models():
        for seed in range(256):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
            out["pool"].append(select_lcv(model.sampler(rng, 100), cfg).nu)
print(json.dumps(out))
"""


def run_child(src, code, args):
    """Run ``code`` with ``args`` (JSON, as sys.argv[1]) in a fresh
    interpreter that imports circkde from ``src``, BLAS pinned to one
    thread; return the JSON the child prints."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(args)], env=env, capture_output=True, text=True
    )
    if proc.returncode:
        raise RuntimeError(f"benchmark child failed on {src}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _run(src, sizes, repeats, pool):
    return run_child(src, _CHILD, {"sizes": sizes, "repeats": repeats, "pool": pool})


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the old code")
    ap.add_argument("--after", required=True, help="src directory of the new code")
    opts = ap.parse_args(argv)

    after = _run(opts.after, SIZES, REPEATS, True)
    before = {"times": {}, "nu": {}, "pool": _run(opts.before, [], 1, True)["pool"]}
    last = None  # (n, cold seconds) of the largest "before" size timed
    for n in SIZES:
        # select_lcv costs O(n^2) per candidate before the change
        if last is not None and last[1] * (n / last[0]) ** 2 > BUDGET_S:
            before["times"][str(n)] = "not run"
            continue
        part = _run(opts.before, [n], REPEATS if n < 10000 else 1, False)
        before["times"].update(part["times"])
        before["nu"].update(part["nu"])
        last = (n, part["times"][str(n)]["cold_s"])

    devs = [rel(before["nu"][k], after["nu"][k]) for k in before["nu"]]
    devs += [rel(a, b) for a, b in zip(before["pool"], after["pool"])]
    report = {
        "what": "select_lcv wall time on one VM-MIX2 sample, von Mises kernel, default config",
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": after["numpy"],
            "blas_threads": 1,
        },
        "before": before["times"],
        "after": after["times"],
        "nu_before": before["nu"],
        "nu_after": after["nu"],
        "pool_samples": len(after["pool"]),
        "worst_rel_nu_deviation": max(devs, default=0.0),
        "date": time.strftime("%Y-%m-%d"),
    }
    with open(OUT, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
