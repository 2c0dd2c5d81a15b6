"""Time and check the type-1 NUFFT moments (CircularSample.trig_moments)
and the type-2 sums at points behind select_lcv on two source trees, and
write BENCH_nufft.json (or the ``--out`` path).

    python3 scripts/bench_nufft.py --before OLD/src --after src [--out FILE]

Each tree is imported in its own interpreter with BLAS pinned to one
thread, ROUNDS times, alternating which tree runs first, and each time is
the best over the rounds.  The script calls nothing of a tree but
CircularSample, its trig_moments, the selectors, selectors._lcv_table and
estimators._kde_rows, so it runs on any tree that has them.  On each tree
it measures:

* ``moments``: for n in SIZES, best of REPEATS on one VM-MIX3 sample, the
  orders 16, 30 and 960 in turn on a fresh CircularSample (the extensions
  of one analysis), and one call of 678 orders on a fresh CircularSample
  (the order count of select_lcv's table at n = 100);
* ``lcv``: for n in SIZES, on the same sample, best of LCV_REPEATS[n]: the
  64-candidate leave-one-out table (``table_s``: _kde_rows at the sample's
  angles, moments memoized), and select_lcv on a fresh CircularSample
  (``select_lcv_s``), with the nu it picks;
* ``worst_error_over_bound``: for n in ACCURACY_SIZES, the accuracy of the
  moments against long-double sums: the worst ratio of the error to the
  bound of the moment tests, 2 x the error of a one-cos-per-term loop +
  1e-14 n, over uniform samples and von Mises(1000) clusters at 0 and at
  pi, ACCURACY_SEEDS seeds each, at 64 and 1025 orders;
* rt, dpi, ste and lcv on every ``large-n`` benchmark pool sample (128
  samples, n = 10 000, drawn by ``bench/workloads.py``); the report gives
  the worst relative nu deviation between the trees per selector;
* one rt, dpi and ste analysis (``analysis``) and one lcv analysis
  (``lcv_analysis``) of one n = 1e6 ANALYSIS_MODEL sample, each on a fresh
  CircularSample.  That model is VM-MIX2 because the three-fold symmetric
  VM-MIX3 truth has a mean resultant near 0 at that size, so the default
  one-component reference fit makes rt, dpi and ste fall back to the
  uniform density before they sum any moments.  The lcv analysis holds
  the (64 x n) leave-one-out table: about 1 GB at n = 1e6.
"""

import argparse
import json
import os
import platform
import time

from bench_lcv import cpu_model, rel, run_child

SIZES = (100, 1000, 10000, 100000)
REPEATS = 9
LCV_REPEATS = {100: 200, 1000: 50, 10000: 9, 100000: 3}
ROUNDS = 2
ACCURACY_SIZES = (1, 2, 50, 100, 499, 500, 2000)
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
from circkde.estimators import CircularSample, _kde_rows
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


def chain(angles, orders):
    # the angles are wrapped and read-only already, so no from_data
    sample = CircularSample(angles)
    for J in orders:
        sample.trig_moments(J)


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


def lcv_table(angles, repeats):
    _, specs, weights, _ = sel._lcv_table(cfg.kernel_family, cfg.exact_inversion)
    sample = CircularSample(angles)
    sample.trig_moments(weights.shape[1])
    return best(lambda: _kde_rows(sample, specs, sample.angles, weights), repeats)


out = {"numpy": np.__version__, "moments": {}, "lcv": {}, "worst_error_over_bound": {}}
for n in args["sizes"]:
    a = model_angles(n)
    r = args["repeats"]
    out["moments"][str(n)] = {
        "chain_16_30_960_s": best(lambda: chain(a, (16, 30, 960)), r),
        "fresh_678_s": best(lambda: chain(a, (678,)), r),
    }
    r = args["lcv_repeats"][str(n)]
    out["lcv"][str(n)] = {
        "table_s": lcv_table(a, r),
        "select_lcv_s": best(lambda: sel.select_lcv(CircularSample(a), cfg), r),
        "nu": sel.select_lcv(CircularSample(a), cfg).nu,
    }
for n in args["accuracy_sizes"]:
    worst = 0.0
    for kind in ("uniform", "cluster0", "cluster_pi"):
        for seed in range(args["accuracy_seeds"]):
            x = kind_angles(kind, n, seed)
            for J in args["accuracy_orders"]:
                worst = max(worst, bound_ratio(CircularSample(x).trig_moments(J), x, J))
    out["worst_error_over_bound"][str(n)] = worst

out["pool"] = [picks(workloads.large_angles(k)) for k in range(workloads.LARGE_POOL)]
a = model_angles(args["analysis_n"], args["analysis_model"])
t0 = time.perf_counter()
sample = CircularSample.from_data(a)
nus = {m: sel.SELECTORS[m](sample, cfg).nu for m in ("rt", "dpi", "ste")}
out["analysis"] = {"seconds": time.perf_counter() - t0, "nu": nus}
t0 = time.perf_counter()
nu = sel.select_lcv(CircularSample.from_data(a), cfg).nu
out["lcv_analysis"] = {"seconds": time.perf_counter() - t0, "nu": nu}
print(json.dumps(out))
"""


def _run(src):
    args = {
        "sizes": SIZES,
        "repeats": REPEATS,
        "lcv_repeats": {str(n): r for n, r in LCV_REPEATS.items()},
        "accuracy_sizes": ACCURACY_SIZES,
        "accuracy_orders": ACCURACY_ORDERS,
        "accuracy_seeds": ACCURACY_SEEDS,
        "selectors": SELECTORS,
        "analysis_n": ANALYSIS_N,
        "analysis_model": ANALYSIS_MODEL,
        "bench": os.path.join(ROOT, "bench"),
    }
    return run_child(src, _CHILD, args)


def _best_of(rounds):
    """The first round's report, with each time the best over the rounds;
    the accuracy, pool and nu are deterministic."""
    out = rounds[0]
    for part in ("moments", "lcv"):
        for n, row in out[part].items():
            for key in row:
                if key.endswith("_s"):
                    row[key] = min(r[part][n][key] for r in rounds)
    for part in ("analysis", "lcv_analysis"):
        out[part]["seconds"] = min(r[part]["seconds"] for r in rounds)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the old code")
    ap.add_argument("--after", required=True, help="src directory of the new code")
    ap.add_argument("--out", default=OUT, help="report path (default: BENCH_nufft.json)")
    opts = ap.parse_args(argv)

    runs = {"before": [], "after": []}
    for k in range(ROUNDS):
        order = ("before", "after") if k % 2 == 0 else ("after", "before")
        for side in order:
            runs[side].append(_run(getattr(opts, side)))
    before, after = (_best_of(runs[side]) for side in ("before", "after"))
    deviations = {
        name: max(rel(a[k], b[k]) for a, b in zip(before["pool"], after["pool"]))
        for k, name in enumerate(SELECTORS)
    }
    report = {
        "what": (
            f"CircularSample.trig_moments and select_lcv on two trees: times are "
            f"best over {ROUNDS} alternating rounds on one VM-MIX3 sample per n: "
            f"best of {REPEATS} of the 16, 30, 960 moment chain and of one fresh "
            "678-order call; best of LCV_REPEATS of the 64-candidate LCV table "
            "(moments memoized) and of select_lcv on a fresh sample, with its nu; "
            "the accuracy of the moments against long-double sums (worst error "
            "over the moment tests' bound 2 loop_err + 1e-14 n), the worst "
            "relative nu deviation between the trees on the 128 large-n pool "
            f"samples, and one rt/dpi/ste and one lcv analysis of a "
            f"{ANALYSIS_MODEL} sample at n = {ANALYSIS_N}"
        ),
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": after["numpy"],
            "blas_threads": 1,
        },
        "moments": {"before": before["moments"], "after": after["moments"]},
        "lcv": {"before": before["lcv"], "after": after["lcv"]},
        "lcv_repeats": LCV_REPEATS,
        "worst_rel_lcv_nu_deviation": max(
            rel(before["lcv"][n]["nu"], after["lcv"][n]["nu"]) for n in after["lcv"]
        ),
        "worst_error_over_bound": {
            "before": before["worst_error_over_bound"],
            "after": after["worst_error_over_bound"],
        },
        "pool_samples": len(after["pool"]),
        "worst_rel_nu_deviation_large_n_pool": deviations,
        "analysis": {"before": before["analysis"], "after": after["analysis"]},
        "lcv_analysis": {"before": before["lcv_analysis"], "after": after["lcv_analysis"]},
        "date": time.strftime("%Y-%m-%d"),
    }
    with open(opts.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
