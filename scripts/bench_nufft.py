"""Time and check the two moment engines, and write BENCH_nufft.json (or
the ``--out`` path).

    python3 scripts/bench_nufft.py --before OLD/src --after src [--out FILE]

Each tree is imported in its own interpreter with BLAS pinned to one
thread.  The new tree (``--after``) has both engines of
CircularSample.trig_moments: the block-rebased engine and, from
_NUFFT_MIN_N angles on, the type-1 NUFFT.  On it the script measures:

* ``engines``: for n in SIZES, best of REPEATS on one VM-MIX3 sample, the
  engine's orders 16, 30 and 960 in turn (the extensions of one large-n
  benchmark op) against one NUFFT of 1024 orders, and the engine's 2000
  orders against one NUFFT of 2048;
* ``crossover``: for n in CROSSOVER_SIZES, the engine's cheapest first
  call (16 orders) against one NUFFT of 1024 orders, best of
  CROSSOVER_REPEATS, and the accuracy of both against long-double sums:
  the worst ratio of the error to the bound of the moment tests, 2 x the
  error of a one-cos-per-term loop + 1e-14 n, over uniform samples and
  von Mises(1000) clusters at 0 and at pi, at 64 and 1025 orders.  The
  measured crossover is the smallest of these n from which the NUFFT is
  faster at every larger n; _NUFFT_MIN_N should equal it.

On both trees it runs rt, dpi, ste and lcv on every ``large-n`` benchmark
pool sample (128 samples, n = 10 000, drawn by ``bench/workloads.py``),
and the report gives the worst relative nu deviation per selector.  It
also times one rt, dpi and ste analysis of one n = 1e6 ANALYSIS_MODEL
sample on a fresh CircularSample.  That model is VM-MIX2 because the
three-fold symmetric VM-MIX3 truth has a mean resultant near 0 at that
size, so the default one-component reference fit makes all three
selectors fall back to the uniform density before they sum any moments.
"""

import argparse
import json
import os
import platform
import time

from bench_lcv import cpu_model, rel, run_child

SIZES = (100, 1000, 10000, 100000, 1000000)
REPEATS = 3
CROSSOVER_SIZES = (50, 100, 200, 300, 500, 700, 1000, 2000, 5000)
CROSSOVER_REPEATS = 9
ACCURACY_ORDERS = (64, 1025)
ACCURACY_SEEDS = 3
ANALYSIS_N = 1000000
ANALYSIS_MODEL = "VM-MIX2"
SELECTORS = ("rt", "dpi", "ste", "lcv")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_nufft.json")

_CHILD = r"""
import json, sys, time
import numpy as np
from circkde import estimators as est
from circkde.estimators import CircularSample
from circkde import selectors as sel
from circkde.simulate import builtin_models

args = json.loads(sys.argv[1])
sys.path.insert(0, args["bench"])
import workloads

cfg = sel.SelectorConfig()
models = {m.name: m for m in builtin_models()}


def model_angles(n, name="VM-MIX3"):
    rng = np.random.default_rng(np.random.SeedSequence([20221, n]))
    return CircularSample.from_data(models[name].sampler(rng, n).angles).angles


def best(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def engine_chain(angles, chain):
    have = 0
    for top in chain:
        est._engine_moments(angles, have, top)
        have = top


def bound_ratio(got, angles, J):
    args_ld = angles.astype(np.longdouble)[:, None] * np.arange(1, J + 1)
    args_d = angles[:, None] * np.arange(1, J + 1)
    worst = 0.0
    for g, f in zip(got, (np.cos, np.sin)):
        ref = f(args_ld).sum(axis=0)
        loop_err = float(np.max(np.abs(f(args_d).sum(axis=0) - ref)))
        err = float(np.max(np.abs(g - ref)))
        worst = max(worst, err / (2.0 * loop_err + 1e-14 * len(angles)))
    return worst


def kind_angles(kind, n, seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
    if kind == "uniform":
        x = rng.uniform(-np.pi, np.pi, n)
    else:
        x = rng.vonmises(0.0 if kind == "cluster0" else np.pi, 1000.0, n)
    return CircularSample.from_data(x).angles


def picks(angles):
    sample = CircularSample.from_data(angles)
    return [sel.SELECTORS[m](sample, cfg).nu for m in args["selectors"]]


out = {"numpy": np.__version__}
if args["engines"]:
    est._nufft_moments(np.zeros(1), 1024)  # the kernel transform, once per plan
    est._nufft_moments(np.zeros(1), 2048)
    out["min_n"] = est._NUFFT_MIN_N
    out["engines"] = {}
    for n in args["sizes"]:
        a = model_angles(n)
        r = args["repeats"]
        out["engines"][str(n)] = {
            "engine_16_30_960_s": best(lambda: engine_chain(a, (16, 30, 960)), r),
            "nufft_1024_s": best(lambda: est._nufft_moments(a, 1024), r),
            "engine_2000_s": best(lambda: est._engine_moments(a, 0, 2000), r),
            "nufft_2048_s": best(lambda: est._nufft_moments(a, 2048), r),
        }
    out["crossover"] = {}
    for n in args["crossover_sizes"]:
        a = model_angles(n)
        r = args["crossover_repeats"]
        row = {
            "engine_16_s": best(lambda: est._engine_moments(a, 0, 16), r),
            "nufft_1024_s": best(lambda: est._nufft_moments(a, 1024), r),
        }
        if n <= 2000:
            worst = {"engine": 0.0, "nufft": 0.0}
            for kind in ("uniform", "cluster0", "cluster_pi"):
                for seed in range(args["accuracy_seeds"]):
                    x = kind_angles(kind, n, seed)
                    for J in args["accuracy_orders"]:
                        plan = max(1024, 1 << (J - 1).bit_length())
                        C, S = est._nufft_moments(x, plan)
                        worst["nufft"] = max(worst["nufft"], bound_ratio((C[:J], S[:J]), x, J))
                        worst["engine"] = max(
                            worst["engine"], bound_ratio(est._engine_moments(x, 0, J), x, J)
                        )
            row["worst_error_over_bound"] = worst
        out["crossover"][str(n)] = row

out["pool"] = [picks(workloads.large_angles(k)) for k in range(workloads.LARGE_POOL)]
a = model_angles(args["analysis_n"], args["analysis_model"])
t0 = time.perf_counter()
sample = CircularSample.from_data(a)
nus = {m: sel.SELECTORS[m](sample, cfg).nu for m in ("rt", "dpi", "ste")}
out["analysis"] = {"seconds": time.perf_counter() - t0, "nu": nus}
print(json.dumps(out))
"""


def _run(src, engines):
    args = {
        "engines": engines,
        "sizes": SIZES,
        "repeats": REPEATS,
        "crossover_sizes": CROSSOVER_SIZES,
        "crossover_repeats": CROSSOVER_REPEATS,
        "accuracy_orders": ACCURACY_ORDERS,
        "accuracy_seeds": ACCURACY_SEEDS,
        "selectors": SELECTORS,
        "analysis_n": ANALYSIS_N,
        "analysis_model": ANALYSIS_MODEL,
        "bench": os.path.join(ROOT, "bench"),
    }
    return run_child(src, _CHILD, args)


def measured_crossover(rows):
    """Smallest n from which the NUFFT beats the engine's first call at
    every larger n measured, or None."""
    found = None
    for n in sorted(rows, key=int, reverse=True):
        if rows[n]["nufft_1024_s"] >= rows[n]["engine_16_s"]:
            break
        found = int(n)
    return found


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the code before the NUFFT")
    ap.add_argument("--after", required=True, help="src directory of the code with the NUFFT")
    ap.add_argument("--out", default=OUT, help="report path (default: BENCH_nufft.json)")
    opts = ap.parse_args(argv)

    before = _run(opts.before, engines=False)
    after = _run(opts.after, engines=True)
    deviations = {
        name: max(rel(a[k], b[k]) for a, b in zip(before["pool"], after["pool"]))
        for k, name in enumerate(SELECTORS)
    }
    report = {
        "what": (
            "type-1 NUFFT moments against the block-rebased engine: best-of-"
            f"{REPEATS} times on one VM-MIX3 sample per n, the crossover's timing "
            f"(best of {CROSSOVER_REPEATS}) and accuracy against long-double sums "
            "(worst error over the moment tests' bound 2 loop_err + 1e-14 n), the "
            "worst relative nu deviation between the trees on the 128 large-n pool "
            f"samples, and one rt/dpi/ste analysis of a {ANALYSIS_MODEL} sample at "
            f"n = {ANALYSIS_N}"
        ),
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": after["numpy"],
            "blas_threads": 1,
        },
        "nufft_min_n": after["min_n"],
        "measured_crossover": measured_crossover(after["crossover"]),
        "engines": after["engines"],
        "crossover": after["crossover"],
        "pool_samples": len(after["pool"]),
        "worst_rel_nu_deviation_large_n_pool": deviations,
        "analysis": {"before": before["analysis"], "after": after["analysis"]},
        "date": time.strftime("%Y-%m-%d"),
    }
    with open(opts.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
