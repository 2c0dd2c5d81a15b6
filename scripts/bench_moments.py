"""Time the moment and kernel-sum layers on two source trees and write
BENCH_moments.json (or the ``--out`` path).

    python3 scripts/bench_moments.py --before OLD/src --after src [--out FILE]

Each tree is imported in its own interpreter with BLAS pinned to one
thread.  For each n in SIZES, one VM-MIX3 sample is drawn and four calls
are timed, best of REPEATS:

* ``trig_moments(2000)`` on a fresh CircularSample;
* ``kde`` on the default 512-point grid with the von Mises kernel at the
  sample's LCV concentration (the sum over the data is direct; LCV, unlike
  DPI, never falls back to the uniform kernel on these samples), and again
  at its DPI concentration;
* ``select_ste`` and ``select_lcv`` with the default config, each on a
  fresh CircularSample, so that the moments are included;
* one analysis as in the ``large-n`` benchmark op: rt, dpi and ste on one
  fresh CircularSample, then ``kde`` and ``kde_deriv`` (r = 1) on the
  512-point grid at the DPI concentration.

Then rt, dpi, ste and lcv run on every ``large-n`` benchmark pool sample
(128 samples, n = 10 000, drawn by ``bench/workloads.py``) and every
``mc-zoo`` pool sample (five zoo models, replicate seeds 0-255, n = 100,
drawn as run_monte_carlo draws them).  The report gives the worst relative
nu deviation between the trees for each selector and pool.  On every
``large-n`` pool sample it also evaluates ``kde`` and ``kde_deriv`` (r = 1)
on the 512-point grid at the DPI concentration, as the benchmark op does,
and gives the worst relative ``kde`` deviation of any grid value and the
worst ``kde_deriv`` deviation relative to the largest |value| of its grid.
"""

import argparse
import json
import os
import platform
import time

from bench_lcv import cpu_model, rel, run_child

SIZES = (100, 1000, 10000, 100000)
REPEATS = 3
MOMENT_ORDER = 2000
SELECTORS = ("rt", "dpi", "ste", "lcv")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_moments.json")

_CHILD = r"""
import json, sys, time
import numpy as np
from circkde.estimators import CircularSample, kde, kde_deriv
from circkde.kernels import KernelSpec
from circkde import selectors as sel
from circkde.simulate import builtin_models

args = json.loads(sys.argv[1])
sys.path.insert(0, args["bench"])
import workloads

cfg = sel.SelectorConfig()
models = {m.name: m for m in builtin_models()}


def best(fn):
    times = []
    for _ in range(args["repeats"]):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def analysis(angles):
    sample = CircularSample.from_data(angles)
    sel.select_rt(sample, cfg)
    spec = KernelSpec.from_nu(cfg.kernel_family, sel.select_dpi(sample, cfg).nu)
    sel.select_ste(sample, cfg)
    kde(sample, spec)
    kde_deriv(sample, spec, 1)


def grids(angles):
    sample = CircularSample.from_data(angles)
    spec = KernelSpec.from_nu(cfg.kernel_family, sel.select_dpi(sample, cfg).nu)
    return kde(sample, spec).values.tolist(), kde_deriv(sample, spec, 1).values.tolist()


def picks(angles):
    sample = CircularSample.from_data(angles)
    return [getattr(sel, f"select_{m}")(sample, cfg).nu for m in args["selectors"]]


out = {"numpy": np.__version__, "times": {}, "pools": {}}
for n in args["sizes"]:
    rng = np.random.default_rng(np.random.SeedSequence([20221, n]))
    angles = models["VM-MIX3"].sampler(rng, n).angles
    sample = CircularSample.from_data(angles)
    spec = KernelSpec.vonmises(nu=sel.select_lcv(sample, cfg).nu)
    dpi_spec = KernelSpec.vonmises(nu=sel.select_dpi(sample, cfg).nu)
    out["times"][str(n)] = {
        "trig_moments_s": best(lambda: CircularSample.from_data(angles).trig_moments(args["order"])),
        "kde_s": best(lambda: kde(sample, spec)),
        "kde_dpi_s": best(lambda: kde(sample, dpi_spec)),
        "select_ste_s": best(lambda: sel.select_ste(CircularSample.from_data(angles), cfg)),
        "select_lcv_s": best(lambda: sel.select_lcv(CircularSample.from_data(angles), cfg)),
        "analysis_s": best(lambda: analysis(angles)),
    }
out["pools"]["large-n"] = [
    picks(workloads.large_angles(k)) for k in range(workloads.LARGE_POOL)
]
out["grids"] = [grids(workloads.large_angles(k)) for k in range(workloads.LARGE_POOL)]
out["pools"]["mc-zoo"] = [
    picks(model.sampler(np.random.default_rng(np.random.SeedSequence([seed, 0])), workloads.MC_N).angles)
    for model in builtin_models()
    for seed in range(workloads.MC_POOL)
]
print(json.dumps(out))
"""


def _run(src):
    args = {
        "sizes": SIZES,
        "repeats": REPEATS,
        "order": MOMENT_ORDER,
        "selectors": SELECTORS,
        "bench": os.path.join(ROOT, "bench"),
    }
    return run_child(src, _CHILD, args)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the old code")
    ap.add_argument("--after", required=True, help="src directory of the new code")
    ap.add_argument("--out", default=OUT, help="report path (default: BENCH_moments.json)")
    opts = ap.parse_args(argv)

    before = _run(opts.before)
    after = _run(opts.after)
    deviations = {}
    for pool, rows in after["pools"].items():
        for k, name in enumerate(SELECTORS):
            devs = [rel(a[k], b[k]) for a, b in zip(before["pools"][pool], rows)]
            deviations[f"{pool}.{name}"] = max(devs)
    kde_dev = deriv_dev = 0.0
    for (kde_a, deriv_a), (kde_b, deriv_b) in zip(before["grids"], after["grids"]):
        kde_dev = max([kde_dev] + [rel(a, b) for a, b in zip(kde_a, kde_b)])
        peak = max(map(abs, deriv_a)) or 1.0
        deriv_dev = max([deriv_dev] + [abs(a - b) / peak for a, b in zip(deriv_a, deriv_b)])
    report = {
        "what": (
            f"best-of-{REPEATS} wall time on one VM-MIX3 sample: trig_moments({MOMENT_ORDER}) "
            "on a fresh sample, kde on the 512-point grid (von Mises at the LCV "
            "concentration, and kde_dpi at the DPI concentration), select_ste and "
            "select_lcv on a fresh sample, and one large-n-style analysis (rt, dpi, "
            "ste, kde and kde_deriv at the DPI concentration on one fresh sample), "
            "default config"
        ),
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": after["numpy"],
            "blas_threads": 1,
        },
        "before": before["times"],
        "after": after["times"],
        "pool_samples": {pool: len(rows) for pool, rows in after["pools"].items()},
        "worst_rel_nu_deviation": deviations,
        "large-n_dpi_grids": {
            "samples": len(after["grids"]),
            "worst_rel_kde_deviation": kde_dev,
            "worst_kde_deriv_deviation_of_peak": deriv_dev,
        },
        "date": time.strftime("%Y-%m-%d"),
    }
    with open(opts.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
